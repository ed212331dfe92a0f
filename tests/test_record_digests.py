import importlib.util
from pathlib import Path

spec = importlib.util.spec_from_file_location(
    "record_digests", Path(__file__).resolve().parent.parent / "scripts" / "record_digests.py")
record_digests = importlib.util.module_from_spec(spec)
spec.loader.exec_module(record_digests)


def test_the_benchmark_records_are_byte_identical():
    # the seed-0 records of the north-star sweep, the three named analyze
    # instances and the dual_mix forms; a change that moves any of them must
    # say so and update the digest here
    assert record_digests.digests() == {
        "sweep": "ef887f0d8c52ca7bde2a34f49a8ef547b2062a85d36cb02afe750081cecb3362",
        "analyze": "cedcdc8915708dc79c9737abe79a7ebec2392a68cb11a9e61bd7b69645c2f6b8",
        "dual_mix": "c4767a763ace94c5a80f8e7d41b1b5e59354166d55db789337a5cf4dfedd3a52",
    }
