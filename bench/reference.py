"""A fixed CPU task that measures how fast this machine runs right now.

    python reference.py

It does the kind of work `supercong verify` does, in the same proportions
as nearly as a few lines can: interpreter start-up and the numpy import,
modular inverses and powers on Python integers, dict and tuple traffic,
and int64 convolutions reduced modulo a prime power. It shares no code
with the package, so a change to the package never changes its cost.
run.py times it between the program's children and divides their times
by its own, which cancels the drift of a shared host's speed over a run.
"""

import numpy as np


def main() -> None:
    mod = 7**4
    total = 0
    table: dict[tuple[int, int], int] = {}
    for s in range(1, 9):
        for k in range(1, 12000):
            if k % 7:
                term = pow(k, -s, mod)
                table[(s, k % 97)] = (table.get((s, k % 97), 0) + term) % mod
                total = (total * 31 + term) % mod
    series = np.array([pow(k, -1, mod) if k % 7 else 0 for k in range(1, 2001)], dtype=np.int64)
    power = series.copy()
    for _ in range(48):
        power = np.convolve(power, series)[:2000] % mod
    total = (total + int(power.sum()) + sum(table.values())) % mod
    print(total)


if __name__ == "__main__":
    main()
