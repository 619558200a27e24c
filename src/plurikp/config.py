"""Package-wide defaults.

The package's settings; the few numerical constants not fixed by the
mathematics that live beside their one user are listed in README, Defaults.
"""

# Largest lattice dimension N accepted by cell constructors.  All algorithms
# are dimension generic; the bound only guards against typo-sized input.
MAX_DIM = 10

# Rejection floor for randomly drawn or completed values and denominators.
DRAW_FLOOR = 1e-6

# Relative margin required of every octahedron binomial before a field is
# used in a finite-difference check.  Keeps third derivatives bounded while
# staying cheap to hit by rejection (a few redraws per trial): the measured
# worst-case central-difference error at this margin is about 2e-9.
FD_MARGIN = 0.03

# Central finite-difference step used by gradient and Euler-Lagrange checks.
FD_STEP = 1e-6

# Draws a rejection sampler makes before it gives up with SingularFieldError.
MAX_REDRAWS = 500

# Trials per batched array in the suite's trial loops: bounds the memory of a
# suite whatever its trial count.
TRIAL_CHUNK = 2000

# Default tolerances.  The records' tolerances are overridable via SuiteConfig
# or --tol.<name>; the branch thresholds (classify, neither_floor, system_rel)
# and the completion check (solver_rel) are fixed.
TOLERANCES = {
    "special_values": 1e-11,
    "skew_antisymmetry": 1e-12,
    "golden_three_form": 1e-10,
    "golden_closure": 1e-9,
    "corner_unit": 1e-8,
    "closure_random": 1e-8,
    "gradient": 1e-6,
    "el_sum": 1e-6,
    "classify": 1e-7,
    "neither_floor": 1e-3,
    "system_rel": 1e-9,
    "solver_rel": 1e-10,
    "exact": 0.0,
}

DEFAULT_TRIALS = 1000
DEFAULT_DIM = 4
DEFAULT_SEED = 2024

