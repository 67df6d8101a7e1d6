"""Map the region of characteristic pairs that admit a compatible polarization.

For a gluing of rank r whose fiber map has rank k, a pair (chi1, chi2) is
admissible when some weight w1 in (0,1) satisfies the four compatibility
inequalities.  This script draws the lattice picture for a few (r, k) and
prints the exact weight intervals along one diagonal.
"""

from nodalmoduli import feasible_interval, in_region

LO, HI = -6, 8


def ascii_map(r, k):
    print(f"\nr = {r}, k = {k}   ('#' admissible, '.' not; box {LO}..{HI})")
    print("     " + "".join(f"{chi1:>3d}" for chi1 in range(LO, HI + 1)))
    for chi2 in range(HI, LO - 1, -1):
        row = "".join(
            "  #" if in_region(r, k, chi1, chi2) else "  ."
            for chi1 in range(LO, HI + 1)
        )
        print(f"{chi2:>4d} {row}")


ascii_map(2, 1)
ascii_map(2, 2)
ascii_map(3, 1)

print("\nExact weight intervals on the diagonal chi2 = chi1 + 1 (r = 2, k = 1):")
for chi1 in range(-3, 5):
    report = feasible_interval(2, 1, chi1, chi1 + 1)
    sample = "-" if report.sample is None else f"w1 = {report.sample.w1}"
    print(
        f"  (chi1, chi2) = ({chi1:>2d}, {chi1 + 1:>2d})  chi = {report.chi:>3d}  "
        f"{report.w1_interval!r:<36}  {sample}"
    )

print("\nThe k = 1 region already works for every k at once:")
for point in [(1, 2), (2, 2), (0, 0), (3, -1)]:
    for_all = all(in_region(2, k, *point) for k in (1, 2))
    just_k1 = in_region(2, 1, *point)
    print(f"  {point}: all-k {for_all}, k=1 {just_k1}")
