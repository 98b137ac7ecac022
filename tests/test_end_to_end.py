"""The bundled example files must reproduce every headline number through
the matching CLI commands."""

from orthinst.cli import run_command
from orthinst.specfile import bundled_spec_path

C6 = str(bundled_spec_path("c6p3"))
C5 = str(bundled_spec_path("c5p3"))


def test_charge6_numbers_through_the_cli():
    rep = run_command(["verify", C6])
    cond = rep.results["conditions"]
    assert rep.exit_code == 0
    assert cond["rank_A"] == 24 and cond["a1_expected"] == 24
    assert cond["a2"]["kind"] == "CertifiedFullRank"
    assert cond["q_subset"] == list(range(24))

    rep = run_command(["monad", C6])
    assert rep.results["identity_zero"] is True
    bt = rep.results["beta_t"]
    assert bt[0] == ["0", "2x1", "0", "0", "0", "0"]
    assert bt[23] == ["0", "0", "0", "0", "-3x2", "0"]

    rep = run_command(["splitting", C6, "--P", "1,2,3,4", "--Q", "5,6,7,8"])
    g = rep.results["gamma"]["matrix"]
    assert g[0][1] == "-16"
    assert rep.results["split"]["verdict"] == "Trivial"

    rep = run_command(["splitting", C6, "--P", "1,0,0,0", "--Q", "0,0,0,1"])
    assert rep.results["split"] == {"verdict": "Jumping", "det": "0", "pfaffian": "0"}

    rep = run_command(["scan-lines", C6, "--samples", "1000", "--seed", "0", "--box", "10"])
    scan = rep.results["scan"]
    assert scan["trivial"] == 997 and scan["jumping"] == 3
    assert all(w["det"] == "0" for w in scan["witnesses"])

    rep = run_command(["kronecker", C6])
    k = rep.results["kronecker"]
    assert k["rank_gamma_hat"] == 24 and k["expected_rank_2c_plus_r"] == 24
    assert "printed_alt_rank_2n_plus_r" not in k and "matches_printed_alt" not in k
    assert "2n+r" not in rep.human

    rep = run_command(["cohomology", C6])
    e = rep.results["table"]["entries"]
    assert e["(1,-1)"]["dim"] == 6 and e["(1,0)"]["dim"] == 0 and e["(1,-2)"]["dim"] == 0
    assert e["(0,-4)"]["dim"] == 0 and e["(0,0)"]["dim"] == 0
    assert e["(2,-3)"]["dim"] == 6
    assert rep.results["instanton"]["charge_computed"] == 6
    assert rep.results["table"]["warnings"] == []

    rep = run_command(["moduli-dim", "--c", "6", "--n", "3"])
    assert rep.results["moduli"]["dim"] == 54


def test_charge5_numbers_through_the_cli():
    rep = run_command(["verify", C5])
    cond = rep.results["conditions"]
    assert rep.exit_code == 0 and cond["rank_A"] == 20 and cond["a1_expected"] == 20

    rep = run_command(["monad", C5])
    assert rep.results["identity_zero"] is True
    bt = rep.results["beta_t"]
    assert bt[0] == ["0", "x1", "x3", "0", "x3"]
    assert bt[7][3] == "-x0-x2"

    rep = run_command(["scan-lines", C5, "--samples", "500", "--seed", "0"])
    scan = rep.results["scan"]
    assert scan["trivial"] == 0
    assert scan["jumping"] + scan["degenerate"] == 500

    rep = run_command(["splitting", C5, "--P", "1,2,3,4", "--Q", "5,6,7,8"])
    assert rep.results["split"]["verdict"] == "Jumping"
    assert "pfaffian" not in rep.results["split"]  # odd charge

    rep = run_command(["kronecker", C5])
    assert rep.results["kronecker"]["rank_gamma_hat"] == 20
    assert rep.results["kronecker"]["matches_expected"] is True

    rep = run_command(["cohomology", C5])
    e = rep.results["table"]["entries"]
    assert e["(1,-1)"]["dim"] == 5 and e["(2,-3)"]["dim"] == 5
    assert rep.results["instanton"]["charge_computed"] == 5

    rep = run_command(["moduli-dim", "--c", "5", "--n", "3"])
    assert rep.results["moduli"]["dim"] == 35
