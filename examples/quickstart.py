"""Quickstart: multiply two scale-free sparse matrices with HH-CPU.

Generates a synthetic scale-free matrix, squares it on the simulated
CPU+GPU platform, prints the phase breakdown, and verifies the numeric
result against a reference kernel.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import HHCPU, hash_multiply, powerlaw_matrix


def main() -> None:
    # A 10k-row matrix whose row sizes follow a power law with
    # exponent ~2.3 (strongly scale-free, like a web graph).
    a = powerlaw_matrix(10_000, alpha=2.3, target_nnz=60_000, rng=42)
    print(f"input: {a.nrows} x {a.ncols}, nnz = {a.nnz}")

    result = HHCPU().multiply(a, a)
    print(result.summary())
    print("thresholds chosen (t_A, t_B):", result.details["thresholds"])
    print("partition:", result.details["partition"])
    print(
        "work-units: CPU took",
        result.details["cpu_units"],
        "(stole", result.details["cpu_stolen"], "), GPU took",
        result.details["gpu_units"],
        "(stole", result.details["gpu_stolen"], ")",
    )

    # Verify against the transparent reference kernel on a submatrix
    # (the full check lives in the test suite, against scipy).
    sub = a.take_rows(np.arange(200))
    ref = hash_multiply(sub, a, backend="reference").result
    ours = result.matrix.take_rows(np.arange(200))
    assert ours.allclose(ref.tocsr()), "numeric mismatch!"
    print("numeric check vs reference kernel: OK")


if __name__ == "__main__":
    main()
