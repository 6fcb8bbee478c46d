"""Golden outputs: every shipped config, run at a reduced size through the
command-line entry point, must write the same bytes as the recorded run.

summary.json is left out so that it may carry per-run fields such as
timings.  A change that moves an output on purpose re-records its hashes
here and says why.
"""

import hashlib
import os

import numpy as np
import pytest

from nlqw import LatticeState, save_state_csv
from nlqw.cli import main

CONFIGS = os.path.join(os.path.dirname(os.path.dirname(__file__)), "configs")

# name -> (command, shipped config, --set overrides); "{packet}" is replaced
# by the path of the packet state written by write_packet.
CASES = {
    "decay": ("decay", "decay.json", ["decay.t_min=50", "decay.t_max=400"]),
    "recover": ("recover", "recover.json", ["recover.t_max=256"]),
    "scatter": ("scatter", "scatter.json", ["scatter.horizon=256"]),
    "snapshots": (
        "simulate",
        "snapshots.json",
        ["steps=600", "record.snapshots=[0,200,400,600]"],
    ),
    "soliton": ("simulate", "soliton.json", ["steps=300", "record.snapshots=[0,150,300]"]),
    "strong_regime": (
        "simulate",
        "strong_regime.json",
        ["steps=400", "record.snapshots=[400]"],
    ),
    "table1": ("table1", "table1.json", ["table1.steps=400"]),
    "weak_limit": ("weak-limit", "weak_limit.json", ["weak_limit.time=1000"]),
    "weak_limit_packet": (
        "weak-limit",
        "weak_limit.json",
        ['initial={"kind": "csv", "path": "{packet}"}', "weak_limit.time=1000"],
    ),
    # 3535 density points inside |v| < |a|, so the weight function spans
    # several of spectral._BLOCK's blocks.
    "weak_limit_packet_fine": (
        "weak-limit",
        "weak_limit.json",
        [
            'initial={"kind": "csv", "path": "{packet}"}',
            "weak_limit.time=1000",
            "weak_limit.grid_points=5001",
        ],
    ),
}

# name -> (exit code, {output file: sha256})
GOLDEN: dict[str, tuple[int, dict[str, str]]] = {
    "decay": (
        1,
        {
            "decay_linear.csv": "b4ce9cb1b1464c0032c2acd87a09709036b9159721106e34338769672c05c604",
            "decay_p1_g0.2.csv": "cb2edd7a7d518b95d52db7ae65b36ee296d0bc5af54cf3be8920c98575abf919",
            "decay_p1_g0.4.csv": "501b12e7b9272c40f9274d231bf31bda275d4e3b891580e4bf8482f7ab7a22a7",
            "decay_p2_g0.2.csv": "c880c6c4028ea8704bc0be6d5d76b3c8030e3344b595eafbda18e9161078f63d",
            "decay_p2_g0.4.csv": "089ab762dae4b6b7df89887524f14203d7ad0e29ef564e76ec795f5d2c0711f5",
            "fit_linear.json": "f847f49b8f075c7e99f47393d496f9f35a70b47e5d8290b41e99b3cea28684dc",
            "fit_p1_g0.2.json": "de95f789a77f2c8c637fd9f77dd978e80d118fba191a48510a0549e7771abc37",
            "fit_p1_g0.4.json": "0f8a8cb76c6ce981c413ecacfc8d11a1c4c4bafe78bad35ad0bc8abc207948bf",
            "fit_p2_g0.2.json": "a039e288d499355e21b3db0bccfac6be9f9367e1bed00d0a122657fd75fac386",
            "fit_p2_g0.4.json": "5b59708a40e98690d0741d8f3a1fc97f2b04dc4ff6d8617116a4968451ad210f",
            "plot.gp": "58a2ed334c0d040bede231318907584b4777f9d8159f7cfefa27eea0152067cc",
        },
    ),
    # recorded when the probes moved from whole residual states to adjoint
    # pairings: probe and m entries moved by at most 7.8e-14 of the largest
    # entry of their matrix, error by at most 2.1e-11 relative
    "recover": (
        0,
        {
            "plot.gp": "77161c56fa3933b24bb9906c160358b57b43a2a542145755b17f1047397c3b53",
            "recovery.json": "69ebc57672b946bf7b415d02517407ad561c80001374764c9aa753cb5dbfef44",
            "recovery_errors.csv": "bf424c468b196d8195fe9479baed9d6ca9c8ee37d47d6e5109cf515fa6ac707d",
        },
    ),
    "scatter": (
        0,
        {
            "plot.gp": "1e865522e5fe80214427d3c9d22e5646195ab3a008f8252dd94c89dea881b3d5",
            "scattering.csv": "90f9bb99e9c336744cc2042072423bd4d5522d3b1e791f9f2976e7177ff43165",
            "u_plus.csv": "df7ec24f952cb3a13d32e17e6ceddfe755463be03feb0f1b57efdd2ddc6b5bc7",
        },
    ),
    "snapshots": (
        0,
        {
            "final_state.csv": "745ab50f75d59db01b9ad2603ff9e38a852af7c5131de2af34a5969ad8a162c0",
            "plot.gp": "cb7314e790f6d4dd8d65d98c6ef16185b7211d3c73d1d810abb262d3f081f4e7",
            "series_sup_norm.csv": "2a022a5dd2f3863cc1ff09bb831bcca71dc28e398ac1f6825dc1e0b8ba997ebd",
            "snapshot_t0.csv": "8bbe1d5a14b586925969a99925b39b34c1ffd6ad2c930a3a35c477de4eb05054",
            "snapshot_t200.csv": "3e53ec2be706671a4b4551aa6ce4611e5b88eb59907ad1dfc1de4099719132fe",
            "snapshot_t400.csv": "2ae632be35963aff2517ef3c5e2e39d4fd9a41e430fca94bcc60d66de4421a1a",
            "snapshot_t600.csv": "745ab50f75d59db01b9ad2603ff9e38a852af7c5131de2af34a5969ad8a162c0",
        },
    ),
    "soliton": (
        0,
        {
            "final_state.csv": "fbf16bdd7da252cf2017ea4c857120f8c89ac452a474e320a25fa5c3dbfaf88b",
            "plot.gp": "8972cc8e39072fe6914f30ea8dcc5e8ee268ed79e888b4dcd528e3d972723903",
            "series_argmax.csv": "e6ae9fad16175e12e2cf26241f0bdb9c688afe546e3896b06210776d38df95ff",
            "series_sup_norm.csv": "fa078063e7e18ccacff88026a6a9f85eced084ae6487785622554cb50fa3abd7",
            "snapshot_t0.csv": "79c19ca3482c58c2a41b28b0f37242e46c52a4f449bdcff43dd6fe4883fae827",
            "snapshot_t150.csv": "9f530a1c1387a2383344ca7f1c444a87da5e286c661a73d082462820d566554a",
            "snapshot_t300.csv": "fbf16bdd7da252cf2017ea4c857120f8c89ac452a474e320a25fa5c3dbfaf88b",
        },
    ),
    "strong_regime": (
        0,
        {
            "plot.gp": "cb7314e790f6d4dd8d65d98c6ef16185b7211d3c73d1d810abb262d3f081f4e7",
            "series_sup_norm.csv": "134b98474df713992b1018414164665715a07c4dd0af8dc71ca0f92f293f4ade",
            "snapshot_t400.csv": "6acbc13ff697c309238213bbca54c29499b9feb08955a7d9be5691a8b840d3fc",
            "threshold_trace.csv": "4a7c57374ac87cd28654257023218abd9fd17ed469a17343252d9ac52380dde6",
        },
    ),
    "table1": (
        1,
        {
            "table1.csv": "6e9a5431e0379acb47900f582fb4e90a7921bceb1ddf888b6eb4039114ad4657",
        },
    ),
    "weak_limit": (
        1,
        {
            "density.csv": "790e33a1fb5ae16b19214ab80a72c1fc1875e0ab67d8b2eb43e8a4a65ed578f6",
            "empirical_cdf.csv": "23994b6900e7c4ddac4644ebe42da31af6e0b037faaaf33757ea7ea01fbb43b1",
            "plot.gp": "85437ae6a5bd05145e2283149c53f77c9eb3ba4697a32c5aedff7e13a4c9a540",
            "theory_cdf.csv": "be1440133464435b9a596c7e902c74e7d8d86d2d0fab43725e80e91014f21310",
        },
    ),
    # density.csv and theory_cdf.csv re-recorded when the weak-limit Fourier
    # sums moved to Horner's rule: values moved by at most 5e-15.
    "weak_limit_packet": (
        0,
        {
            "density.csv": "a6de7f0244e8443611661661024a48cce6e1db88aa63eec980a4503cd38170e8",
            "empirical_cdf.csv": "e2f54e138142b4806b0dea1e334b9fadc5b196eb305c158dd65a9eb31f186209",
            "plot.gp": "85437ae6a5bd05145e2283149c53f77c9eb3ba4697a32c5aedff7e13a4c9a540",
            "theory_cdf.csv": "f56d498fa3c9a324c88713c46d819b28d7408ba22d2764473a2b36cb9b753b5f",
        },
    ),
    "weak_limit_packet_fine": (
        0,
        {
            "density.csv": "0f8759432e88b552d47913931b24c21eec2f714cd29030e28a606a3a1da06630",
            "empirical_cdf.csv": "1fbd6e33b22470419be0a46435b9d80630853a74ce72b3f13dfd0f05f3b04eab",
            "plot.gp": "85437ae6a5bd05145e2283149c53f77c9eb3ba4697a32c5aedff7e13a4c9a540",
            "theory_cdf.csv": "d9e83ecf60d261d023a1fc865e02be2ba8ab2cd36919833d87e75c85bb7629eb",
        },
    ),
}


def write_packet(path) -> None:
    """33-site Gaussian packet with a complex polarisation, starting left of
    the origin so the Fourier sums see negative sites."""
    x = np.arange(-20, 13)
    env = np.exp(-(x + 4.0) ** 2 / 64.0)
    env /= np.sqrt(np.sum(env**2))
    amp = np.column_stack([0.6 * env, 0.8j * np.exp(0.3j * x) * env])
    save_state_csv(LatticeState(-20, amp), str(path))


def run_case(name: str, tmp_path) -> tuple[int, dict[str, str]]:
    command, config, sets = CASES[name]
    packet = tmp_path / "packet.csv"
    write_packet(packet)
    out = tmp_path / "out"
    argv = [command, "--config", os.path.join(CONFIGS, config), "--out", str(out)]
    for s in sets:
        argv += ["--set", s.replace("{packet}", str(packet))]
    code = main(argv)
    hashes = {}
    for fname in sorted(os.listdir(out)):
        if fname != "summary.json":
            hashes[fname] = hashlib.sha256((out / fname).read_bytes()).hexdigest()
    return code, hashes


def test_every_shipped_config_has_a_case():
    shipped = {f for f in os.listdir(CONFIGS) if f.endswith(".json")}
    assert shipped == {config for _, config, _ in CASES.values()}
    assert set(GOLDEN) == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_match_the_recorded_hashes(name, tmp_path):
    code, hashes = run_case(name, tmp_path)
    want_code, want_hashes = GOLDEN[name]
    assert code == want_code
    assert sorted(hashes) == sorted(want_hashes)
    moved = sorted(f for f in hashes if hashes[f] != want_hashes[f])
    assert not moved, f"{name}: outputs changed: {moved}"
