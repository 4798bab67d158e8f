"""Where brute force disagrees with the smooth story, the workbench says so.

For commutative-semiring-style ideals one would expect:
  (a) a subset is an ideal iff it contains 0, is closed under + and absorbs
      products, and
  (b) the least ideal containing a is {a*c : c in A}.

On the 3-element chain both expectations fail, and the report exhibits the
witnesses rather than picking a side.
"""

from nearsemiring import bundled_file, luk_chain, semiring_claims_report
from nearsemiring.cli import main

l3 = luk_chain(3)
report = semiring_claims_report(l3)

print("claims adjudicated on the 3-chain:")
for finding in report.disagreements:
    print(f"\n  DISAGREE [{finding.claim}] at {finding.target_kind} {finding.target}")
    print(f"    {finding.detail}")
    print(f"    witness: {finding.witness}")

print(f"\n{report.agree} claims agree, {len(report.disagreements)} disagree")

print("\nthe same through the command line (exit status 1 flags the findings):")
status = main(["claims", str(bundled_file("l3.alg"))])
print(f"\nexit status: {status}")
