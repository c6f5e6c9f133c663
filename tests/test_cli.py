import json

import pytest

from fcplx.cli import main

BUNDLE = (
    "weight 0\n"
    "complex A tinv.cplx\ncomplex B zero.cplx\ncomplex C a.cplx\n"
    "map u\nend\nmap v\nend\n"
    "map w\nf a a\nend\n"
    "map phi\nf t.a a\nend\n"
    "map psi\nf a t.a\nend\n"
)


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    (tmp_path / "e2.cplx").write_text("gen y 0 3\ngen x 1 1\nd y x\n")
    (tmp_path / "a.cplx").write_text("gen a 0 0\n")
    (tmp_path / "b.cplx").write_text("gen a 0 1\n")
    (tmp_path / "zero.cplx").write_text("# empty\n")
    (tmp_path / "tinv.cplx").write_text("gen a 1 0\n")
    (tmp_path / "m.map").write_text("map a.cplx b.cplx\nf a a\n")
    (tmp_path / "down.map").write_text("map b.cplx a.cplx\nf a a\n")
    (tmp_path / "bundle.tri").write_text(BUNDLE)
    monkeypatch.chdir(tmp_path)
    return tmp_path


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_barcode_text_and_json_agree(workdir, capsys):
    code, out, _ = run(capsys, "barcode", "e2.cplx")
    assert code == 0 and out == "bar 1 1 3\n"
    code, out, _ = run(capsys, "barcode", "e2.cplx", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["bars"] == [{"degree": 1, "lo": "1", "hi": "3"}]


def test_depth_and_acyclic_predicates(workdir, capsys):
    code, out, _ = run(capsys, "depth", "e2.cplx")
    assert code == 0 and out.strip() == "2"
    code, out, _ = run(capsys, "acyclic", "e2.cplx", "--r", "2")
    assert code == 0 and out.strip() == "true"
    code, out, _ = run(capsys, "acyclic", "e2.cplx", "--r", "15/8")
    assert code == 1 and out.strip() == "false"


def test_bottleneck_and_rule_flag(workdir, capsys):
    code, out, _ = run(capsys, "bottleneck", "a.cplx", "b.cplx")
    assert code == 0 and out.strip() == "1"
    code, out, _ = run(capsys, "bottleneck", "e2.cplx", "zero.cplx")
    assert code == 0 and out.strip() == "4"
    code, out, _ = run(capsys, "bottleneck", "e2.cplx", "zero.cplx",
                       "--standard-bottleneck")
    assert code == 0 and out.strip() == "1"


def test_cone_command_emits_complex_text(workdir, capsys):
    code, out, _ = run(capsys, "cone", "m.map", "--lambda", "1")
    assert code == 0
    assert "gen t.a" in out
    code, _, err = run(capsys, "cone", "m.map")
    assert code == 2 and "deficit" in err


def test_riso_and_sigma(workdir, capsys):
    code, out, _ = run(capsys, "riso", "down.map", "--r", "1")
    assert code == 0 and out.strip() == "true"
    code, out, _ = run(capsys, "riso", "down.map", "--r", "1/2")
    assert code == 1 and out.strip() == "false"
    code, out, _ = run(capsys, "sigma", "m.map")
    assert code == 0 and out.strip() == "1"


def test_verify_and_rotate_bundle(workdir, capsys):
    code, out, _ = run(capsys, "verify-triangle", "bundle.tri")
    assert code == 0 and "verified true" in out
    code, out, _ = run(capsys, "rotate", "bundle.tri")
    assert code == 0 and "weight 0" in out
    code, out, _ = run(capsys, "verify-triangle", "bundle.tri", "--json")
    payload = json.loads(out)
    assert payload["verified"] is True and payload["weight"] == "0"


def test_frag_and_prop51(workdir, capsys):
    code, out, _ = run(capsys, "frag", "a.cplx", "b.cplx")
    assert code == 0 and "d_frag <= 1" in out
    code, out, _ = run(capsys, "frag", "a.cplx", "b.cplx", "--exact",
                       "--depth", "2", "--budget", "10")
    assert "oracle delta(X,Y) = 1" in out
    code, out, _ = run(capsys, "prop51", "a.cplx", "b.cplx", "--json")
    payload = json.loads(out)
    assert payload["d_bot"] == "1" and payload["constant"] == 5


def test_frag_honours_a_family_without_zero(workdir, capsys):
    # the levels of x and i swapped: no pure shift, no equal barcodes
    for name, x, i in (("x.cplx", 0, 1), ("y.cplx", 1, 0)):
        (workdir / name).write_text(
            f"gen x 0 {x}\ngen y -1 2\ngen i 0 {i}\nd y x\n")
    (workdir / "fam.txt").write_text("family\nmember x.cplx\n")
    (workdir / "fam0.txt").write_text("family\nmember x.cplx\nwith-zero\n")
    argv = ("frag", "x.cplx", "y.cplx", "--exact", "--json", "--family")
    code, out, _ = run(capsys, *argv, "fam0.txt")
    payload = json.loads(out)
    assert code == 0 and payload["d_frag_upper"] == payload["oracle"] == "2"
    # every bound the library holds here ends in a zero-apex step
    code, out, _ = run(capsys, *argv, "fam.txt")
    payload = json.loads(out)
    assert code == 0
    assert payload["delta_forward"] == payload["delta_backward"] == "inf"
    assert payload["oracle"] == "inf"


def test_check_exits_clean_and_writes_cache(workdir, capsys, monkeypatch):
    cache = workdir / "cache"
    monkeypatch.setenv("FCPLX_CACHE_DIR", str(cache))
    code, out, _ = run(capsys, "check", "--suite", "rotation",
                       "--seed", "7", "--trials", "5")
    assert code == 0
    assert "suite rotation: 5 trials, 0 failures" in out
    assert (cache / "rotation.report").exists()
    code, _, err = run(capsys, "check", "--suite", "bogus")
    assert code == 2


def test_check_reports_a_raising_trial_as_a_fault(workdir, capsys,
                                                monkeypatch):
    from fcplx import verify

    def broken(cfg, rng):
        raise ZeroDivisionError("boom")

    monkeypatch.setitem(verify.SUITES, "rotation", broken)
    code, out, _ = run(capsys, "check", "--suite", "rotation",
                       "--trials", "2", "--json")
    assert code == 3
    payload = json.loads(out)
    assert payload["ok"] is False
    (report,) = payload["reports"]
    assert report["fault"] is True
    assert report["suite"] == "rotation" and report["trials"] == 2
    assert [(f["offset"], f["claim"]) for f in report["failures"]] == [
        (0, "exception"), (1, "exception")]
    assert "ZeroDivisionError: boom" in report["failures"][0]["payload"]
    # the failed trial stays replayable from its offset
    with pytest.raises(ZeroDivisionError):
        verify.replay_trial("rotation", verify.GenConfig(seed=0), 1)
    # a failed claim is not a fault: exit 1 and no "fault" key
    monkeypatch.setitem(verify.SUITES, "rotation",
                        lambda cfg, rng: [("claim", "payload")])
    code, out, _ = run(capsys, "check", "--suite", "rotation",
                       "--trials", "1", "--json")
    assert code == 1 and "fault" not in json.loads(out)["reports"][0]


def test_malformed_inputs_exit_two(workdir, capsys):
    code, _, err = run(capsys, "barcode", "missing.cplx")
    assert code == 2
    (workdir / "bad.cplx").write_text("gen broken\n")
    code, _, err = run(capsys, "barcode", "bad.cplx")
    assert code == 2 and "error" in err


@pytest.mark.parametrize("argv", [
    ["frag", "a.cplx", "b.cplx", "--seed", "3"],
    ["prop51", "a.cplx", "b.cplx", "--trials", "2"],
    ["barcode", "e2.cplx", "--standard-bottleneck"],
    ["check", "--suite", "rotation", "--standard-bottleneck"],
])
def test_options_belong_to_their_command(workdir, capsys, argv):
    """--seed and --trials are check's, --standard-bottleneck is
    bottleneck's; any other command rejects them as malformed."""
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and "unrecognized arguments" in err


@pytest.mark.parametrize("name, text, argv, where", [
    ("fam.txt", "family\nmember\n",
     ["frag", "a.cplx", "b.cplx", "--family", "fam.txt"], "line 2:"),
    ("bad.map", "map a.cplx b.cplx\nf\n",
     ["cone", "bad.map", "--lambda", "1"], "line 2:"),
    ("bad.tri", BUNDLE.replace("weight 0", "weight"),
     ["verify-triangle", "bad.tri"], "bad.tri:1:"),
    ("bad.tri", BUNDLE.replace("map v", "map"),
     ["verify-triangle", "bad.tri"], "bad.tri:7:"),
    ("bad.tri", BUNDLE.replace("f a a", "f"),
     ["verify-triangle", "bad.tri"], "bad.tri:10:"),
], ids=["family-member", "map-f", "bundle-weight", "bundle-map",
        "bundle-block-f"])
def test_directive_without_operand_exits_two(workdir, capsys, name, text,
                                             argv, where):
    (workdir / name).write_text(text)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and where in err, err


FAMILY = "family\nmember a.cplx\nclosed-shift\nclosed-T\nwith-zero\n"


@pytest.mark.parametrize("name, text, where", [
    ("fam.txt", FAMILY.replace("family", "family extra"), "fam.txt: line 1:"),
    ("fam.txt", FAMILY.replace("a.cplx", "a.cplx tinv.cplx"),
     "fam.txt: line 2:"),
    ("fam.txt", FAMILY.replace("closed-shift", "closed-shift 3"),
     "fam.txt: line 3:"),
    ("fam.txt", FAMILY.replace("closed-T", "closed-T 1"), "fam.txt: line 4:"),
    ("fam.txt", FAMILY.replace("with-zero", "with-zero now"),
     "fam.txt: line 5:"),
    ("bad.tri", BUNDLE.replace("weight 0", "weight 0 5"), "bad.tri:1:"),
    ("bad.tri", BUNDLE.replace("map u", "map u junk"), "bad.tri:5:"),
    ("bad.tri", BUNDLE.replace("map u\nend", "map u\nend extra"),
     "bad.tri:6:"),
], ids=["family", "family-member", "family-closed-shift", "family-closed-T",
        "family-with-zero", "bundle-weight", "bundle-map", "bundle-end"])
def test_directive_with_extra_operands_exits_two(workdir, capsys, name, text,
                                                 where):
    (workdir / name).write_text(text)
    argv = (["frag", "a.cplx", "b.cplx", "--family", name]
            if name == "fam.txt" else ["verify-triangle", name])
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and where in err, err


@pytest.mark.parametrize("argv, flag", [
    (["check", "--suite", "prop51", "--trials", "-3"], "--trials"),
    (["frag", "a.cplx", "b.cplx", "--exact", "--depth", "-2"], "--depth"),
    (["frag", "a.cplx", "b.cplx", "--exact", "--budget", "-1"], "--budget"),
    (["frag", "a.cplx", "b.cplx", "--exact", "--budget=-1/2"], "--budget"),
], ids=["trials", "depth", "budget", "budget-fraction"])
def test_a_negative_count_exits_two(workdir, capsys, argv, flag):
    """Trials, search depth and weight budget are counts or bounds: a
    negative one is malformed input, named in the message."""
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {flag} must be >= 0"), err


def test_zero_counts_are_accepted(workdir, capsys):
    code, out, _ = run(capsys, "check", "--suite", "prop51", "--trials", "0")
    assert code == 0 and "0 trials" in out
    code, out, _ = run(capsys, "frag", "a.cplx", "b.cplx", "--exact",
                       "--depth", "0", "--budget", "0")
    assert code == 0 and "oracle" in out


def test_numeric_content_matches_between_modes(workdir, capsys):
    (workdir / "half.cplx").write_text("gen u 0 1/2\n")
    code, out_text, _ = run(capsys, "barcode", "half.cplx")
    code, out_json, _ = run(capsys, "barcode", "half.cplx", "--json")
    assert "1/2" in out_text
    assert json.loads(out_json)["bars"][0]["lo"] == "1/2"


def test_octahedron_command(workdir, capsys):
    # the first bundle ends at the object the second one starts from;
    # the second is the cone triangle of the identity on that object
    (workdir / "coneid.cplx").write_text(
        "gen a 0 0\ngen t.a -1 0\nd t.a a\n"
    )
    (workdir / "bundle2.tri").write_text(
        "weight 0\n"
        "complex A a.cplx\ncomplex B a.cplx\ncomplex C coneid.cplx\n"
        "map u\nf a a\nend\n"
        "map v\nf a a\nend\n"
        "map w\nf t.a a\nend\n"
        "map phi\nf a a\nf t.a t.a\nend\n"
        "map psi\nf a a\nf t.a t.a\nend\n"
    )
    code, out, err = run(capsys, "octahedron", "bundle.tri", "bundle2.tri")
    assert code == 0, err
    assert "first weight 0 verified true" in out
    assert "second weight 0 verified true" in out


@pytest.mark.parametrize("fault", [AssertionError("grid\nincomplete"),
                                   RecursionError("too deep")])
def test_internal_faults_exit_three(workdir, capsys, monkeypatch, fault):
    import fcplx.cli

    def boom(args):
        raise fault

    monkeypatch.setattr(fcplx.cli, "cmd_bottleneck", boom)
    code, out, err = run(capsys, "bottleneck", "a.cplx", "b.cplx")
    assert code == 3 and out == ""
    assert err.startswith("internal error: " + type(fault).__name__)
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("files, argv, where", [
    ({"dd.cplx": "gen a 0 0\ngen b 1 0\ngen c 2 0\nd a b\nd b c\n"},
     ["depth", "dd.cplx"], "dd.cplx: invalid complex: d(d(a)) != 0"),
    ({"far.cplx": "gen a 0 0\ngen b 1 1\nd a b\n"},
     ["prop51", "far.cplx", "a.cplx"], "far.cplx: invalid complex: "),
    ({"deg.map": "map a.cplx tinv.cplx\nf a a\n"},
     ["cone", "deg.map", "--lambda", "1"], "deg.map: invalid map: "),
    ({}, ["acyclic", "e2.cplx", "--r", "-1"], "must be >= 0"),
    ({}, ["acyclic", "e2.cplx", "--r", "x"], "not an exact scalar"),
    ({}, ["riso", "m.map", "--r", "1"], "shift-<=0"),
], ids=["d-squared", "filtration", "map-degree", "negative-r", "bad-r",
        "riso-shift"])
def test_inputs_breaking_a_stated_condition_exit_two(workdir, capsys, files,
                                                     argv, where):
    for name, text in files.items():
        (workdir / name).write_text(text)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and where in err, err


@pytest.mark.parametrize("files, argv, token", [
    ({"inf.cplx": "gen a 0 inf\n"}, ["barcode", "inf.cplx"], "'inf'"),
    ({"inf.cplx": "gen a 0 -inf\n"}, ["depth", "inf.cplx"], "'-inf'"),
    ({}, ["acyclic", "e2.cplx", "--r", "inf"], "'inf'"),
    ({}, ["acyclic", "e2.cplx", "--r=-inf"], "'-inf'"),
    ({}, ["riso", "down.map", "--r", "inf"], "'inf'"),
    ({}, ["riso", "down.map", "--r=-inf"], "'-inf'"),
    ({}, ["cone", "m.map", "--lambda", "inf"], "'inf'"),
    ({}, ["cone", "m.map", "--lambda=-inf"], "'-inf'"),
    ({}, ["frag", "a.cplx", "b.cplx", "--exact", "--budget", "inf"], "'inf'"),
    ({}, ["frag", "a.cplx", "b.cplx", "--exact", "--budget=-inf"], "'-inf'"),
    ({"inf.tri": BUNDLE.replace("weight 0", "weight inf")},
     ["verify-triangle", "inf.tri"], "'inf'"),
    ({"inf.tri": BUNDLE.replace("weight 0", "weight -inf")},
     ["verify-triangle", "inf.tri"], "'-inf'"),
], ids=["gen-inf", "gen-neg-inf", "acyclic-inf", "acyclic-neg-inf",
        "riso-inf", "riso-neg-inf", "cone-inf", "cone-neg-inf",
        "budget-inf", "budget-neg-inf", "bundle-weight-inf",
        "bundle-weight-neg-inf"])
def test_an_infinite_scalar_in_input_exits_two(workdir, capsys, files, argv,
                                               token):
    """Every scalar read from input is a level, weight or bound used in
    exact arithmetic, so an infinity is malformed input, named in the
    message."""
    for name, text in files.items():
        (workdir / name).write_text(text)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "not a finite scalar: " + token in err
    if argv[0] == "verify-triangle":
        assert "inf.tri:1:" in err, err


def test_an_internal_value_error_exits_three(workdir, capsys, monkeypatch):
    """A ValueError raised inside fcplx, past the parse and load sites,
    is a fault in fcplx and not malformed input."""
    import fcplx.cli

    def broken(X):
        raise ValueError("no such bar")

    monkeypatch.setattr(fcplx.cli, "barcode", broken)
    code, out, err = run(capsys, "barcode", "a.cplx")
    assert code == 3 and out == ""
    assert err == "internal error: ValueError: no such bar\n"


# Bundles of the triangle a -> B -> cone(u) with u(a) = b, where B also
# holds a bar d(y) = x on [0, 2); the map h: b -> y, of shift -1, has
# dh + hd: b -> x.
HAND_MADE = {
    "a1.cplx": "gen a 1 3\n",
    "b1.cplx": "gen b 1 3\ngen x 1 0\ngen y 0 2\nd y x\n",
    "c1.cplx": ("gen b 1 3\ngen x 1 0\ngen y 0 2\ngen t.a 0 3\n"
                "d y x\nd t.a b\n"),
    "cone_id.cplx": ("gen b 1 3\ngen x 1 0\ngen y 0 2\ngen t.a 0 3\n"
                     "gen t.b 0 3\ngen t.x 0 0\ngen t.y -1 2\n"
                     "gen t.t.a -1 3\nd y x\nd t.a b\nd t.b b\n"
                     "d t.x x\nd t.y y t.x\nd t.t.a t.a t.b\n"),
}

IDENT = "f b b\nf x x\nf y y\nf t.a t.a\n"  # on cone(u) = c1.cplx
IDENT_T = "f t.b t.b\nf t.x t.x\nf t.y t.y\nf t.t.a t.t.a\n"


def _hand_bundle(v, psi):
    return ("weight 0\n"
            "complex A a1.cplx\ncomplex B b1.cplx\ncomplex C c1.cplx\n"
            "map u\nf a b\nend\n"
            f"map v\n{v}end\n"
            "map w\nf t.a a\nend\n"
            f"map phi\n{IDENT}end\n"
            f"map psi\n{psi}end\n")


@pytest.fixture
def hand_made(workdir):
    for name, text in HAND_MADE.items():
        (workdir / name).write_text(text)
    # v = phi o include + (dh + hd): rotate solves for that h
    (workdir / "moved_v.tri").write_text(
        _hand_bundle("f b b x\nf x x\nf y y\n", IDENT))
    # psi = eta + (dh + hd), so phi o psi != eta: the octahedron solves
    # for the homotopy between them
    (workdir / "moved_psi.tri").write_text(
        _hand_bundle("f b b\nf x x\nf y y\n",
                     "f b b x\nf x x\nf y y\nf t.a t.a y\n"))
    # c1 -> c1 -> cone(id), the cone triangle of the identity on c1
    (workdir / "cone_id.tri").write_text(
        "weight 0\n"
        "complex A c1.cplx\ncomplex B c1.cplx\ncomplex C cone_id.cplx\n"
        f"map u\n{IDENT}end\nmap v\n{IDENT}end\n"
        "map w\nf t.b b\nf t.x x\nf t.y y\nf t.t.a t.a\nend\n"
        f"map phi\n{IDENT}{IDENT_T}end\nmap psi\n{IDENT}{IDENT_T}end\n")
    return workdir


def test_rotate_a_witness_whose_v_is_moved_by_a_boundary(hand_made, capsys):
    code, out, _ = run(capsys, "verify-triangle", "moved_v.tri")
    assert code == 0 and "verified true" in out
    code, out, err = run(capsys, "rotate", "moved_v.tri")
    assert code == 0, err
    assert "weight 0\nverified true\n" in out


def test_octahedron_on_an_uncertified_first_bundle(hand_made, capsys):
    for bundle in ("moved_psi.tri", "cone_id.tri"):
        code, out, _ = run(capsys, "verify-triangle", bundle)
        assert code == 0 and "verified true" in out
    code, out, err = run(capsys, "octahedron", "moved_psi.tri",
                         "cone_id.tri")
    assert code == 0, err
    assert "first weight 0 verified true" in out
    assert "second weight 0 verified true" in out


# psi = 0 breaks the psi-right-inverse clause: phi o psi = 0 is not
# homotopic to eta at level 0 on c1, or on its translate, which both
# carry the bar [0, 2).  The second is the triangle c1 -> 0 -> Tc1.
BROKEN_PSI = _hand_bundle("f b b\nf x x\nf y y\n", "")
BROKEN_TO_ZERO = (
    "weight 0\n"
    "complex A c1.cplx\ncomplex B zero.cplx\ncomplex C tc1.cplx\n"
    "map u\nend\nmap v\nend\n"
    "map w\nf t.b b\nf t.x x\nf t.y y\nf t.t.a t.a\nend\n"
    f"map phi\n{IDENT_T}end\nmap psi\nend\n")


def test_octahedron_on_a_broken_second_bundle_exits_one(hand_made, capsys):
    """The octahedron is built; its second triangle fails to verify."""
    (hand_made / "tc1.cplx").write_text(
        "gen t.b 0 3\ngen t.x 0 0\ngen t.y -1 2\ngen t.t.a -1 3\n"
        "d t.y t.x\nd t.t.a t.b\n")
    (hand_made / "broken.tri").write_text(BROKEN_TO_ZERO)
    code, out, _ = run(capsys, "verify-triangle", "broken.tri")
    assert code == 1 and "psi-right-inverse" in out
    code, out, err = run(capsys, "octahedron", "moved_psi.tri", "broken.tri")
    assert code == 1, err
    assert "first weight 0 verified true" in out
    assert "second weight 0 verified false" in out
    code, out, _ = run(capsys, "octahedron", "moved_psi.tri", "broken.tri",
                       "--json")
    payload = json.loads(out)
    assert code == 1 and payload["first_verified"] is True
    assert payload["second_verified"] is False
    assert payload["failed_clauses"] == ["psi-right-inverse"]


def test_octahedron_on_a_broken_first_bundle_exits_two(hand_made, capsys):
    """A first witness whose psi clause fails gives no H1, so the
    octahedron refuses its input."""
    (hand_made / "broken.tri").write_text(BROKEN_PSI)
    code, out, _ = run(capsys, "verify-triangle", "broken.tri")
    assert code == 1 and "psi-right-inverse" in out
    code, out, err = run(capsys, "octahedron", "broken.tri", "cone_id.tri")
    assert code == 2 and out == ""
    assert err == ("error: octahedron: first witness psi-clause fails\n")


# phi sends t.a (degree 0) to b (degree 1) in C = {a: 0, b: 1}: an
# entry between generators of the wrong degree, caught where the bundle
# is read, as in a map file.
WRONG_DEGREE = (
    "weight 0\n"
    "complex A tinv.cplx\ncomplex B zero.cplx\ncomplex C ab.cplx\n"
    "map u\nend\nmap v\nend\n"
    "map w\nf a a\nend\n"
    "map phi\nf t.a a b\nend\n"
    "map psi\nf a t.a\nend\n"
)


@pytest.mark.parametrize("argv", [
    ["verify-triangle", "wrong.tri"],
    ["rotate", "wrong.tri"],
    ["octahedron", "wrong.tri", "bundle.tri"],
    ["octahedron", "bundle.tri", "wrong.tri"],
], ids=["verify-triangle", "rotate", "octahedron-first",
        "octahedron-second"])
def test_a_bundle_map_of_the_wrong_degree_exits_two(workdir, capsys, argv):
    (workdir / "ab.cplx").write_text("gen a 0 0\ngen b 1 0\n")
    (workdir / "wrong.tri").write_text(WRONG_DEGREE)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: wrong.tri: invalid map phi: "), err
