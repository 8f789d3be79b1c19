"""EER, a-DCF and the spoof-detector cascade on synthetic scores.

Simulates a verifier that is good at telling speakers apart but blind to
spoofing attacks, plus a spoof detector that is good at exactly that.
Gating the verifier behind the detector (the tandem/cascade system)
slashes the a-DCF because spoofed trials get forced down to a fixed
reject score before they can be falsely accepted.
"""

import numpy as np

from sasvkit.core import ScoreSet, Trial, TrialLabel
from sasvkit.metrics import a_dcf, det_points, spf_eer, sv_eer
from sasvkit.scoring import CascadeConfig, cascade

rng = np.random.default_rng(7)
N = 500

# (trial, score) records of each system, turned into ScoreSets in bulk
asv_records = []
sd_records = []


def add(kind, asv_mean, sd_mean, tag):
    for i in range(N):
        t = Trial(f"e-{tag}{i}", f"t-{tag}{i}", kind)
        asv_records.append((t, float(rng.normal(asv_mean, 0.5))))
        sd_records.append((t, float(rng.normal(sd_mean, 0.5))))


add(TrialLabel.TARGET, asv_mean=1.5, sd_mean=1.0, tag="tar")
add(TrialLabel.NONTARGET, asv_mean=-1.5, sd_mean=1.0, tag="non")
# spoofs mimic the target speaker, so the verifier scores them high
add(TrialLabel.SPOOF, asv_mean=1.3, sd_mean=-1.0, tag="spf")
asv = ScoreSet(asv_records)
sd = ScoreSet(sd_records)

eer_sv, tau_sv = sv_eer(asv)
eer_spf, _ = spf_eer(asv)
mind, tau, norm = a_dcf(asv)
print("ASV alone:")
print(f"  SV-EER  = {eer_sv:.4f} at threshold {tau_sv:+.4f}")
print(f"  SPF-EER = {eer_spf:.4f}   (spoofs fool the verifier)")
print(f"  min a-DCF = {mind:.5f} (normalized {norm:.4f}) at {tau:+.4f}")

fused = cascade(sd, asv, CascadeConfig(sd_threshold=0.0, reject_score=-5.0))
eer_sv2, _ = sv_eer(fused)
eer_spf2, _ = spf_eer(fused)
mind2, tau2, norm2 = a_dcf(fused)
print("\nSpoof detector -> ASV cascade:")
print(f"  SV-EER  = {eer_sv2:.4f}")
print(f"  SPF-EER = {eer_spf2:.4f}")
print(f"  min a-DCF = {mind2:.5f} (normalized {norm2:.4f}) at {tau2:+.4f}")

print("\nDET curve of the cascaded system (a few operating points):")
points = det_points(fused)
for p in points[:: max(1, len(points) // 8)]:
    print(
        f"  tau={p.threshold:+8.4f}  P_miss={p.p_miss:.4f}"
        f"  P_fa_non={p.p_fa_nontarget:.4f}  P_fa_spf={p.p_fa_spoof:.4f}"
    )
