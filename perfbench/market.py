"""Seeded synthetic markets for the benchmark.

The program never sees the generator: the benchmark writes each market as a
scenario file and the CLI reads it through its own loader.  Every market is
drawn inside the cost assumptions the package states and the shipped
reference scenario meets (see check_domain), so no command warns or fails on it.
"""
from __future__ import annotations

import json
import random

# The reference platform of scenarios/illustrative.scenario.
REFERENCE_PLATFORM = {"rho": 15.0, "F": 10.0, "H": 2.5,
                      "delta_f": 2.0, "delta_h": 2.0, "r": 100.0}

# Seller cost ranges: h in (0.5, 2.2), b in (8, 13), f in (10.2, 25).
SELLER_RANGES = {"h": (0.5, 2.2), "b": (8.0, 13.0), "f": (10.2, 25.0)}


def check_domain(doc: dict) -> None:
    """Raise ValueError unless F <= f_n, H >= h_n and b_n >= H for every
    seller, delta_f >= 0, delta_h >= 0, r > rho + F and mu > 0.

    This keeps delta_h * zeta_FBP >= 0 for every seller, which the
    candidate-point optimizer relies on; markets outside it are a separate
    defect that this benchmark does not cover.
    """
    p = doc["platform"]
    if not (p["delta_f"] >= 0 and p["delta_h"] >= 0 and p["r"] > p["rho"] + p["F"]
            and doc["demand"]["mu"] > 0):
        raise ValueError("platform costs outside the benchmark domain")
    for i, s in enumerate(doc["sellers"], start=1):
        if not (p["F"] <= s["f"] and p["H"] >= s["h"] and s["b"] >= p["H"]):
            raise ValueError(f"seller {i} outside the benchmark domain")


def synthetic_market(seed: int, n_sellers: int, mu: float, psi) -> dict:
    """Scenario document with n_sellers sellers drawn from SELLER_RANGES.

    Each cost is a stratified uniform draw (a Latin hypercube): one value in
    each of n_sellers equal slices of its range, the slices shuffled across
    sellers.  Markets then differ from seed to seed in which seller gets
    which costs, but hardly in how many exit thresholds fall in the feasible
    range, which sets how much work optimize and curve do.  The demand
    filter, mean and platform are fixed by the caller; the seed picks the
    sellers and becomes the scenario's own simulation seed.
    """
    rng = random.Random(seed)
    columns = {}
    for key, (lo, hi) in SELLER_RANGES.items():
        strata = list(range(n_sellers))
        rng.shuffle(strata)
        columns[key] = [lo + (hi - lo) * (k + rng.random()) / n_sellers for k in strata]
    sellers = [{key: columns[key][i] for key in ("h", "b", "f")}
               for i in range(n_sellers)]
    doc = {"demand": {"mu": float(mu), "psi": [float(c) for c in psi]},
           "platform": dict(REFERENCE_PLATFORM),
           "sellers": sellers,
           "options": {"seed": int(seed)}}
    check_domain(doc)
    return doc


def write_market(doc: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
