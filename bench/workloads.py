"""Workload definitions for the diracflow benchmark.

A workload is a list of scenario configurations that one process runs back
to back through ``cli.parse_config`` -> ``cli.run`` -> ``reporting.emit``.
The workload seed is the only input the benchmark varies: it goes into
every configuration as ``seeds.base``, the way ``diracflow run --seed``
passes it (scaled by a stride for callias, see BASE_STRIDE), so the
program sees nothing but the generated configurations.
"""

import json

# Seed 3 is the default because it makes the tower check non-vacuous: its
# integers are (0, -1) there, against (0, 0) at seed 0, which could not
# catch a sign error.  Seed 5 is held out for later performance claims.
DEFAULT_SEED = 3
HELDOUT_SEED = 5

# The benchmark's --seed picks one of the POOL workload seeds, each checked
# to pass on every workload and recorded in reference.json, so that every
# run is compared with a recording.  The pool is finite because some random
# inputs hit a known program defect rather than a regression: the blind
# bisection through a near-degeneracy (specflow._bisect_branch_zero) makes
# cutpaste at seeds.base 1718458259 (k = 5) raise DegeneratePath, about one
# pair in 150.  bench/selftest.py reports whether that input still fails.
POOL = tuple(range(32))


def workload_seed(seed: int) -> int:
    """The workload seed that a benchmark --seed selects."""
    return POOL[seed % len(POOL)]

# cli.run's worker count.  The --jobs thread pool oversubscribes the BLAS
# threads, so the benchmark measures the serial pipeline.
JOBS = 1

# Per workload: (scenario, seed count, params).  The seed counts are whole
# periods of the generators' seed-to-size rules, so that every workload seed
# runs the same mix of problem sizes: sf cycles its fiber dimension with
# period 8 and cutpaste with period k_max.
WORKLOADS = {
    # A few large APS assemblies (up to 1920 x 1936 complex); their dense SVD
    # inside opcore.null_space is most of the run.
    "index-large": [
        ("index1d", 1, {}),
        ("tower", 1, {}),
    ],
    # ~45 medium APS problems (k <= 5 on 192 cells, or auto grids), each
    # cross-checked by both spectral-flow routes, plus the small-matrix
    # scenarios (sf, relind, appendix: thousands of k x k eigh, projection
    # and spectral-norm calls and no APS assembly).  The small-matrix work is
    # single-threaded Python and small LAPACK calls, whose speed on a shared
    # 2-vCPU host swings by up to 1.6x over minutes; on its own it could not
    # be measured within a 0.25 bound, so it rides here at ~1/4 of the run.
    "pairing-mixed": [
        ("callias", 4, {}),
        ("cutpaste", 10, {"pairs": 10, "k_max": 5}),
        ("sf", 16, {}),
        ("relind", 1, {"trials": 100}),
        ("appendix", 1, {"trials": 150}),
    ],
}

# callias cycles its case class with period 4, the matrix-fiber size with
# period 7, the four-way fiber size and the chain interval count with
# period 8, and the family size with period 3.  Its auto
# grids grow with random plateau gaps, so a consecutive seed window would
# swing the run time by whether it holds a k = 8 case on a long grid.  Its
# base is the workload seed times 168 (the common period): each workload
# seed gets one fresh random case of each class, at the same sizes.
BASE_STRIDE = {"callias": 168}


def configs(workload: str, seed: int) -> list:
    """The workload's scenario configurations as JSON texts."""
    return [json.dumps({"scenario": scenario,
                        "seeds": {"base": BASE_STRIDE.get(scenario, 1) * seed,
                                  "count": count},
                        "params": params})
            for scenario, count, params in WORKLOADS[workload]]
