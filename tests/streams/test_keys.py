"""Stream fingerprints: stable across processes, sensitive to the spec."""

import re

from repro.streams import stream_descriptor, stream_fingerprint
from repro.streams.keys import (
    MIX_GEOMETRY,
    STREAM_CODE_VERSION,
    fingerprint_payload,
)
from repro.workloads import get_workload

HEX64 = re.compile(r"^[0-9a-f]{64}$")


class TestFingerprint:
    def test_is_a_sha256_hex_digest(self):
        spec = get_workload("espresso")
        key = stream_fingerprint(spec, spec.primary_task)
        assert HEX64.match(key)

    def test_deterministic_across_spec_instances(self):
        """Two independently built specs agree — the property that lets
        separate processes share one blob."""
        a = get_workload("espresso")
        b = get_workload("espresso")
        task = a.primary_task
        assert stream_fingerprint(a, task) == stream_fingerprint(b, task)

    def test_sensitive_to_every_input(self):
        spec = get_workload("espresso")
        other = get_workload("xlisp")
        task = spec.primary_task
        base = stream_fingerprint(spec, task)
        assert stream_fingerprint(other, other.primary_task) != base
        assert stream_fingerprint(spec, task, True) != base
        assert stream_fingerprint(spec, task, salt="v999") != base

    def test_tasks_of_one_workload_get_distinct_keys(self):
        spec = get_workload("sdet")
        keys = {stream_fingerprint(spec, task) for task in spec.tasks}
        assert len(keys) == len(spec.tasks)

    def test_salt_defaults_to_the_code_version(self):
        spec = get_workload("espresso")
        task = spec.primary_task
        assert stream_fingerprint(spec, task) == stream_fingerprint(
            spec, task, salt=STREAM_CODE_VERSION
        )


    def test_memoized_key_is_the_digest_of_the_spec(self):
        """The memo changes no key: each is still the digest of the
        generating spec, so blobs stored before it keep matching.  No
        length enters it — a prefix of a stream is the same stream."""
        spec = get_workload("xlisp")
        for task in spec.tasks:
            for data in (False, True):
                payload = {
                    "stream": stream_descriptor(spec, task, data),
                    "include_data_refs": data,
                    "salt": STREAM_CODE_VERSION,
                }
                for _ in range(2):
                    assert stream_fingerprint(
                        spec, task, data
                    ) == fingerprint_payload(payload)


class TestDescriptor:
    def test_carries_the_generating_spec(self):
        spec = get_workload("espresso")
        descriptor = stream_descriptor(spec, spec.primary_task, False)
        assert descriptor["workload"] == "espresso"
        assert descriptor["task"] == spec.primary_task
        assert "procedures" in descriptor and descriptor["procedures"]
        assert "data_procedures" not in descriptor

    def test_data_variant_extends_the_descriptor(self):
        spec = get_workload("xlisp")
        task = next(
            name for name in spec.tasks if spec.task(name).data_shapes
        )
        descriptor = stream_descriptor(spec, task, True)
        assert descriptor["mix"] == list(MIX_GEOMETRY)
        assert descriptor["data_seed"] == descriptor["seed"] ^ 0xDA7A


class TestHelpers:
    def test_payload_fingerprint_ignores_dict_order(self):
        assert fingerprint_payload({"a": 1, "b": 2}) == fingerprint_payload(
            {"b": 2, "a": 1}
        )
        assert fingerprint_payload({"a": 1}) != fingerprint_payload({"a": 2})
