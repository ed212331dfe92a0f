"""Each layer's share of the CPU time of one aperylef command, by sampling.

    python3 scripts/sample_layers.py sweep --mult 2:16 --count 3:4 \
        --max-gen 28 --require-m-pure

The arguments are those of the ``aperylef`` command.  It runs once, in this
process, through ``cli.main``, with its standard output thrown away, while a
SIGPROF timer interrupts it every INTERVAL seconds of the process's CPU time
and files the interrupted stack under one layer.  The innermost frame that
names a layer decides: a frame of a function in FUNCTIONS takes that layer,
any other frame the layer of its module in MODULES, and a frame of a module
not listed there (``fractions``, ``random``, ``aperylef.polynomial`` outside
its printer) hands the sample on to its caller.  A stack with no such frame
is ``other``.  The output is the CPU seconds, the sample count and one line
per layer with its share of the samples; the shares sum to 1.  The exit
status is the command's.

Unlike cProfile, which ran the north-star sweep 2.6 times slower and so
overweights code that makes many calls, a sample costs the same wherever it
lands.  Only the main thread is sampled; aperylef starts no other.  The
kernel may deliver the timer no faster than its clock tick (every 4 ms on a
250 Hz kernel), and time spent in one C call (the JSON encoder, a garbage
collection it sets off) lands on the Python frame that made it.  A command
of a few milliseconds gets a few samples, and one that ends before the
first gets no shares.
"""

from __future__ import annotations

import contextlib
import os
import signal
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from aperylef import cli  # noqa: E402

INTERVAL = 0.001

LAYERS = ("semigroup", "algebra build", "map build and rank", "report machinery", "texts", "JSON", "other")

# (module, qualified function name) -> layer, where it is not the module's.
# A test checks that each names a live function, so a rename fails there
# instead of moving its samples to another layer.
FUNCTIONS = {
    ("aperylef.polynomial", "SparsePoly.__str__"): "texts",
    ("aperylef.algebra", "relation_text"): "texts",
    ("aperylef.algebra", "IdealDescription.__post_init__"): "texts",
    ("aperylef.algebra", "ci_tilde_ideal"): "texts",
    ("aperylef.algebra", "codim3_defining_ideal"): "texts",
    ("aperylef.inverse_system", "dual_socle_generator"): "texts",
    ("aperylef.algebra", "GradedAlgebra.map_matrix"): "map build and rank",
    ("aperylef.algebra", "multiplication_matrix"): "map build and rank",
    ("aperylef.algebra", "_path_count_map"): "map build and rank",
    ("aperylef.algebra", "_words"): "map build and rank",
    ("aperylef.algebra", "_check_map_degrees"): "map build and rank",
    ("aperylef.algebra", "LinearForm.symbolic"): "map build and rank",
    ("aperylef.algebra", "OneStepMap.__init__"): "map build and rank",
    ("aperylef.algebra", "OneStepMap._symbolic_entries"): "map build and rank",
    ("aperylef.algebra", "OneStepMap.rank_at"): "map build and rank",
    ("aperylef.lefschetz", "_witness_draws"): "report machinery",
    ("aperylef.semigroup", "_apery_max_reps"): "semigroup",
    ("aperylef.semigroup", "NumericalSemigroup._add_max_reps"): "semigroup",
}

MODULES = {
    "aperylef.semigroup": "semigroup",
    "aperylef.algebra": "algebra build",
    "aperylef.linalg": "map build and rank",
    "aperylef.inverse_system": "map build and rank",
    "aperylef.lefschetz": "report machinery",
    "aperylef.cli": "report machinery",
    "json": "JSON",
    "json.encoder": "JSON",
    "json.decoder": "JSON",
}


def layer_of(frame) -> str:
    """The layer of the innermost frame of the stack that names one."""
    while frame is not None:
        module = frame.f_globals.get("__name__", "")
        code = frame.f_code
        layer = FUNCTIONS.get((module, getattr(code, "co_qualname", code.co_name))) or MODULES.get(module)
        if layer is not None:
            return layer
        frame = frame.f_back
    return "other"


def sample(argv: list[str]) -> tuple[int, dict[str, float], int, float]:
    """Run cli.main(argv) under the timer: (exit status, share of each layer
    in LAYERS, samples, CPU seconds).  The shares are empty when the command
    ended before the first sample."""
    counts: Counter = Counter()

    def on_sample(signum, frame):
        counts[layer_of(frame)] += 1

    previous = signal.signal(signal.SIGPROF, on_sample)
    start = time.process_time()
    signal.setitimer(signal.ITIMER_PROF, INTERVAL, INTERVAL)
    try:
        with open(os.devnull, "w", encoding="utf-8") as sink, contextlib.redirect_stdout(sink):
            code = cli.main(argv)
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, previous)
    cpu = time.process_time() - start
    total = sum(counts.values())
    shares = {layer: counts[layer] / total for layer in LAYERS} if total else {}
    return code, shares, total, cpu


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    code, shares, total, cpu = sample(argv)
    print(f"cpu_s {cpu:.3f}  samples {total}  interval_ms {INTERVAL * 1000:g}")
    for layer, share in shares.items():
        print(f"{layer:20} {share:.4f}")
    return code


if __name__ == "__main__":
    sys.exit(main())
