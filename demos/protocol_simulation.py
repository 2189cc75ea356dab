"""Monte Carlo of the transmission-and-detection protocol vs closed form.

Each trial sends a uniform code state v through the depolarizing channel,
measures against (P, I-P), and counts undetected events: the stabilizer
protocol by collinearity with v, the nonstabilizer protocol by a second
measurement against (vv*, P - vv*), whose outcome is drawn from the overlap
|<v, post>|^2 alone.  The estimates
land within a few standard errors of the polynomial in the weight
enumerators; the same seed always reproduces the same report.
"""

from qedet import (get_code, pue_nonstabilizer, pue_stabilizer, simulate,
                   stabilizer_enumerators)

code = get_code("c422")
pair = stabilizer_enumerators(code)

for protocol, analytic_fn in (("stabilizer", pue_stabilizer),
                              ("nonstabilizer", pue_nonstabilizer)):
    print(f"== {protocol} protocol on c422")
    for p in (0.05, 0.1, 0.3):
        report = simulate(code, p, trials=20000, protocol=protocol, seed=7)
        target = analytic_fn(pair, p)
        sigmas = abs(report.estimate - target) / report.stderr
        print(f"  p={p}: estimate={report.estimate:.5f} +- {report.stderr:.5f}"
              f"  analytic={target:.5f}  ({sigmas:.2f} stderr away)")
    print()

again = simulate(code, 0.1, trials=20000, seed=7)
assert again == simulate(code, 0.1, trials=20000, seed=7)
print("fixed seed: reports are bit-for-bit identical")
print(again.to_json())
