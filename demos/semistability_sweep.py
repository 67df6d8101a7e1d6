"""Check that compatible weights really produce semistable gluings.

For each admissible (chi1, chi2) the sampled weight must defeat every
candidate subsheaf shape: the extremal degrees allowed by the component
hypotheses never push a subsheaf slope above the ambient slope.  An
incompatible weight is rejected up front, naming the inequality it breaks.
"""

from fractions import Fraction

from nodalmoduli import (
    NecessaryConditionError,
    Polarization,
    StabilityHypotheses,
    check_sufficiency,
    feasible_interval,
)

R, K = 3, 2
GENUS = R + 2  # both components; comfortably above the stability threshold

print(f"r = {R}, k = {K}, genera ({GENUS}, {GENUS})\n")
print("chi1 chi2 | feasible  sampled w1   semistable  stable")
for chi1 in range(0, 5):
    for chi2 in range(0, 5):
        report = feasible_interval(R, K, chi1, chi2)
        if not report.feasible:
            print(f"{chi1:>4} {chi2:>4} | no")
            continue
        h = StabilityHypotheses(R, K, chi1, chi2, GENUS, GENUS)
        holds, _ = check_sufficiency(h, report.sample)
        strict_holds, _ = check_sufficiency(h, report.sample, strict=True)
        print(
            f"{chi1:>4} {chi2:>4} | yes       "
            f"{str(report.sample.w1):>10}   {str(holds):<11} {strict_holds}"
        )

print("\nA weight outside the compatible interval is refused:")
h = StabilityHypotheses(R, K, 2, 4, GENUS, GENUS)
bad = Polarization.from_w1(Fraction(9, 10))
try:
    check_sufficiency(h, bad)
except NecessaryConditionError as err:
    print(f"  w1 = 9/10 rejected: {err}")
