import argparse
import dataclasses
import json
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

import hrpks
from hrpks import curve_fp, serial, sigma
from hrpks.cli import COMMANDS, build_parser, main
from hrpks.hierarchy import verify_cert

TOY = ["--curve", "toy17", "--p", "3123456773", "--q", "3123456773"]
README = Path(__file__).resolve().parents[1] / "README.md"
# Format-1 documents as the previous release wrote them from the README
# seeds (setup 1, departments 2..4, alice joins /financial with seed 5),
# with /hr revoked in list.rl and msg.sig signed over "wire transfer #42\n"
# with seed 6, so it carries one nonzero proof.
FORMAT_V1 = Path(__file__).resolve().parent / "data" / "format_v1"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _setup(capsys, d, seed="11"):
    code, out, err = run(capsys, "setup", *TOY, "--seed", seed,
                         "--params-out", str(d / "gm.params"),
                         "--gm-key-out", str(d / "gm.key"))
    assert code == 0, err
    return d / "gm.params", d / "gm.key"


def _write_empty_rl(d, params_path):
    from hrpks.revocation import empty_rl

    rl_path = d / "list.rl"
    serial.save_artifact(rl_path, "rl", empty_rl())
    return rl_path


def _full_world(capsys, d, seed="11"):
    params, gm_key = _setup(capsys, d, seed)
    tree = d / "org.tree"
    for i, name in enumerate(["financial", "hr", "engineering"]):
        code, out, _ = run(capsys, "dept", "add", "--params", str(params),
                           "--tree", str(tree), "--parent", "/",
                           "--name", name, "--seed", str(100 + i))
        assert code == 0
        assert out.strip() == f"/{name}"
    members = {}
    for i, (member, dept) in enumerate(
            [("alice", "/financial"), ("bob", "/financial"),
             ("carol", "/hr")]):
        key = d / f"{member}.key"
        pub = d / f"{member}.pub"
        code, _, _ = run(capsys, "member", "join", "--params", str(params),
                         "--tree", str(tree), "--gm-key", str(gm_key),
                         "--dept", dept, "--id", member,
                         "--key-out", str(key), "--pub-out", str(pub),
                         "--seed", str(200 + i))
        assert code == 0
        members[member] = (key, pub)
    rl = _write_empty_rl(d, params)
    msg = d / "msg.bin"
    msg.write_bytes(b"wire transfer #42\n")
    return params, gm_key, tree, members, rl, msg


def test_setup_builds_no_comb_table(tmp_path, capsys):
    # setup's one msm, the GM point, runs without a table, so a one-shot
    # `hrpks setup` pays for neither comb over the generators
    curve_fp._comb_table.cache_clear()
    _setup(capsys, tmp_path)
    assert curve_fp._comb_table.cache_info().misses == 0


def test_workflow_sign_verify_revoke(tmp_path, capsys):
    d = tmp_path
    params, gm_key, tree, members, rl, msg = _full_world(capsys, d)
    alice_key, alice_pub = members["alice"]
    carol_key, carol_pub = members["carol"]

    sig = d / "m.sig"
    code, _, _ = run(capsys, "sign", "--params", str(params),
                     "--key", str(alice_key), "--rl", str(rl),
                     "--msg-file", str(msg), "--out", str(sig), "--seed", "7")
    assert code == 0

    code, out, _ = run(capsys, "verify", "--params", str(params),
                       "--pub", str(alice_pub), "--rl", str(rl),
                       "--msg-file", str(msg), "--sig", str(sig))
    assert code == 0 and "Accept" in out

    # tampered message file
    bad = d / "bad.bin"
    bad.write_bytes(b"wire transfer #43\n")
    code, out, _ = run(capsys, "verify", "--params", str(params),
                       "--pub", str(alice_pub), "--rl", str(rl),
                       "--msg-file", str(bad), "--sig", str(sig))
    assert code == 1 and "BAD_CHALLENGE" in out

    # revoke alice individually
    code, _, _ = run(capsys, "revoke", "member", "--params", str(params),
                     "--rl", str(rl), "--pub", str(alice_pub))
    assert code == 0
    code, out, _ = run(capsys, "verify", "--params", str(params),
                       "--pub", str(alice_pub), "--rl", str(rl),
                       "--msg-file", str(msg), "--sig", str(sig))
    assert code == 1 and "PK_REVOKED" in out

    code, _, err = run(capsys, "sign", "--params", str(params),
                       "--key", str(alice_key), "--rl", str(rl),
                       "--msg-file", str(msg), "--out", str(d / "x.sig"),
                       "--seed", "8")
    assert code == 3 and "revocation list" in err

    # revoke the whole financial department: bob is blocked, carol is not
    code, _, _ = run(capsys, "revoke", "group", "--params", str(params),
                     "--rl", str(rl), "--tree", str(tree),
                     "--dept", "/financial")
    assert code == 0
    bob_key, _bob_pub = members["bob"]
    code, _, err = run(capsys, "sign", "--params", str(params),
                       "--key", str(bob_key), "--rl", str(rl),
                       "--msg-file", str(msg), "--out", str(d / "y.sig"),
                       "--seed", "9")
    assert code == 3 and "/financial" in err

    carol_sig = d / "carol.sig"
    code, _, _ = run(capsys, "sign", "--params", str(params),
                     "--key", str(carol_key), "--rl", str(rl),
                     "--msg-file", str(msg), "--out", str(carol_sig),
                     "--seed", "10")
    assert code == 0
    code, out, _ = run(capsys, "verify", "--params", str(params),
                       "--pub", str(carol_pub), "--rl", str(rl),
                       "--msg-file", str(msg), "--sig", str(carol_sig),
                       "--json")
    assert code == 0
    assert json.loads(out) == {"accepted": True, "reason": None}

    # coalesce: three level-1 departments under the root never collapse
    before = serial.load_artifact(rl)
    code, out, _ = run(capsys, "rl", "coalesce", "--params", str(params),
                       "--rl", str(rl), "--tree", str(tree))
    assert code == 0 and "unchanged" in out
    assert serial.load_artifact(rl) == before


def test_seeded_full_narrative_is_byte_identical(tmp_path, capsys):
    # join -> sign -> revoke member -> revoke department -> coalesce,
    # twice from the same seeds: every artifact byte-identical
    outs = []
    for sub in ("a", "b"):
        d = tmp_path / sub
        d.mkdir()
        params, gm_key, tree, members, rl, msg = _full_world(capsys, d)
        sig = d / "m.sig"
        code, _, _ = run(capsys, "sign", "--params", str(params),
                         "--key", str(members["carol"][0]), "--rl", str(rl),
                         "--msg-file", str(msg), "--out", str(sig),
                         "--seed", "7")
        assert code == 0
        code, _, _ = run(capsys, "revoke", "member", "--params", str(params),
                         "--rl", str(rl), "--pub", str(members["alice"][1]))
        assert code == 0
        code, _, _ = run(capsys, "revoke", "group", "--params", str(params),
                         "--rl", str(rl), "--tree", str(tree),
                         "--dept", "/financial")
        assert code == 0
        code, _, _ = run(capsys, "sign", "--params", str(params),
                         "--key", str(members["carol"][0]), "--rl", str(rl),
                         "--msg-file", str(msg), "--out", str(d / "m2.sig"),
                         "--seed", "8")
        assert code == 0
        code, _, _ = run(capsys, "rl", "coalesce", "--params", str(params),
                         "--rl", str(rl), "--tree", str(tree))
        assert code == 0
        blob = b"".join(sorted(p.read_bytes()
                               for p in d.iterdir() if p.is_file()))
        outs.append(blob)
    assert outs[0] == outs[1]


def test_lab_subcommands(tmp_path, capsys):
    d = tmp_path
    code, _, _ = run(capsys, "setup", "--curve", "toy17", "--p", "97",
                     "--q", "257", "--seed", "3",
                     "--params-out", str(d / "s.params"),
                     "--gm-key-out", str(d / "s.key"))
    assert code == 0
    code, out, _ = run(capsys, "lab", "relations", "--params",
                       str(d / "s.params"), "--bound", "110",
                       "--out", str(d / "rel.report"))
    assert code == 0 and "relations" in out
    report = serial.load_artifact(d / "rel.report")
    assert (103, 0) in report.relations
    # one search, no selector
    with pytest.raises(SystemExit) as exc:
        main(["lab", "relations", "--params", str(d / "s.params"),
              "--bound", "1", "--method", "mitm",
              "--out", str(d / "m.report")])
    assert exc.value.code == 2
    assert not (d / "m.report").exists()

    code, out, _ = run(capsys, "lab", "orders", "--params",
                       str(d / "s.params"), "--out", str(d / "ord.report"))
    assert code == 0 and "103" in out
    assert serial.load_artifact(d / "ord.report").orders == (103, 103)


def test_lab_relations_refuses_p_above_order_guard(tmp_path, capsys):
    # `lab orders` refused these parameters while `lab relations` ran a
    # baby-step giant-step search of about 2 * p^(1/4) steps per generator
    code, _, err = run(capsys, "setup", "--curve", "toy17",
                       "--p", str((1 << 127) - 1), "--q", str((1 << 89) - 1),
                       "--seed", "1",
                       "--params-out", str(tmp_path / "big.params"),
                       "--gm-key-out", str(tmp_path / "big.key"))
    assert code == 0, err
    started = time.perf_counter()
    code, _, err = run(capsys, "lab", "relations", "--params",
                       str(tmp_path / "big.params"), "--bound", "1",
                       "--out", str(tmp_path / "rel.report"))
    assert time.perf_counter() - started < 1.0
    assert code == 2 and "order-search guard" in err, err
    assert not (tmp_path / "rel.report").exists()


def test_lab_relations_refuses_before_searching(tmp_path, capsys):
    # the generator orders come before the walk: a wide box is refused as
    # fast as --bound 1 instead of after a search of 2 * 10^5 + 1 steps
    code, _, err = run(capsys, "setup", "--curve", "toy17",
                       "--p", str((1 << 127) - 1), "--q", str((1 << 89) - 1),
                       "--seed", "1",
                       "--params-out", str(tmp_path / "big.params"),
                       "--gm-key-out", str(tmp_path / "big.key"))
    assert code == 0, err
    started = time.perf_counter()
    code, _, err = run(capsys, "lab", "relations", "--params",
                       str(tmp_path / "big.params"), "--bound", "100000",
                       "--out", str(tmp_path / "rel.report"))
    assert time.perf_counter() - started < 1.0
    assert code == 2 and "order-search guard" in err, err
    assert not (tmp_path / "rel.report").exists()


def test_reproduce_toy17(capsys):
    code, out, _ = run(capsys, "reproduce", "toy17")
    assert code == 0
    assert "all values match" in out
    assert "DIFF" not in out


def test_usage_errors(tmp_path, capsys):
    code, _, err = run(capsys, "setup", "--curve", "toy17", "--p", "4",
                       "--q", "257", "--params-out",
                       str(tmp_path / "x.params"),
                       "--gm-key-out", str(tmp_path / "x.key"))
    assert code == 2 and "not prime" in err

    # every bad parameter of setup is a usage error, l_s included
    for flag, value, what in (("--ls", "0", "l_s"), ("--ls", "300", "l_s"),
                              ("--lc", "3", "l_c")):
        code, _, err = run(capsys, "setup", *TOY, flag, value,
                           "--params-out", str(tmp_path / "x.params"),
                           "--gm-key-out", str(tmp_path / "x.key"))
        assert code == 2 and what in err, (flag, value, err)
    assert not (tmp_path / "x.params").exists()

    # a prime of bad reduction is a bad argument too, not an invariant
    # violation, and setup writes nothing
    code, _, err = run(capsys, "setup", "--curve", "toy17", "--p", "17",
                       "--q", "257", "--params-out",
                       str(tmp_path / "x.params"),
                       "--gm-key-out", str(tmp_path / "x.key"))
    assert code == 2 and "bad reduction" in err, err
    assert not any(tmp_path.iterdir())

    code, _, err = run(capsys, "verify", "--params",
                       str(tmp_path / "missing.params"), "--pub", "x",
                       "--rl", "y", "--msg-file", "z", "--sig", "w")
    assert code == 2


def test_dept_add_without_a_name_takes_the_first_free_d_k(tmp_path, capsys):
    params, _ = _setup(capsys, tmp_path)
    paths = []
    for name in (["--name", "d1"], [], []):
        code, out, err = run(capsys, "dept", "add", "--params", str(params),
                             "--tree", str(tmp_path / "org.tree"), *name,
                             "--seed", "2")
        assert code == 0, err
        paths.append(out.strip())
    assert paths == ["/d1", "/d0", "/d2"]


@pytest.fixture(scope="module")
def m8_dir(tmp_path_factory):
    """mestre8 (r = 8) at p = 10007, q = 1009, with /a and /a/x added and
    an empty list."""
    d = tmp_path_factory.mktemp("m8")
    params, tree = str(d / "gm.params"), str(d / "org.tree")
    assert main(["setup", "--curve", "mestre8", "--p", "10007", "--q", "1009",
                 "--seed", "1", "--params-out", params,
                 "--gm-key-out", str(d / "gm.key")]) == 0
    for seed, (parent, name) in enumerate([("/", "a"), ("/a", "x")], 2):
        assert main(["dept", "add", "--params", params, "--tree", tree,
                     "--parent", parent, "--name", name,
                     "--seed", str(seed)]) == 0
    _write_empty_rl(d, params)
    return d


def _add_defect(doc, defect, q):
    """Hand-edit a defective node below /a into a tree document; return
    what the refusal names: the node's path and the rule it breaks."""
    a = doc["root"]["children"][0]
    if defect == "width":
        a["children"].append({"children": [], "name": "b",
                              "hyperplane": ["1", "2"]})
        return "/a/b has a hyperplane that is not r + 1 = 9 wide"
    if defect == "dependent":  # twice /a's plane: all of /a's space
        a["children"].append({"children": [], "name": "b", "hyperplane": [
            str(2 * int(v) % q) for v in a["hyperplane"]]})
        return "/a/b stacks 2 hyperplanes of rank 1 mod q"
    node = a  # unit planes on coordinates 1 .. 7, down to level 8
    for i in range(1, 8):
        node["children"].append({"children": [], "name": "u", "hyperplane": [
            "1"] + [str(int(j == i)) for j in range(8)]})
        node = node["children"][-1]
    return "/a/u/u/u/u/u/u/u is at level 8, deeper than r - 1 = 7"


@pytest.mark.parametrize("command", [
    ["dept", "add", "--parent", "/a", "--seed", "3"],
    ["member", "join", "--gm-key", "gm.key", "--dept", "/a/x", "--id", "eve",
     "--key-out", "eve.key", "--pub-out", "eve.pub", "--seed", "4"],
    ["revoke", "group", "--rl", "list.rl", "--dept", "/a/x"],
    ["rl", "coalesce", "--rl", "list.rl"],
], ids=["dept-add", "member-join", "revoke-group", "rl-coalesce"])
@pytest.mark.parametrize("defect", ["width", "depth", "dependent"])
def test_every_tree_command_refuses_a_defective_tree(
        m8_dir, tmp_path, capsys, monkeypatch, command, defect):
    # the loader checks every node against the params, so each command that
    # reads a tree refuses one with a hyperplane not r + 1 wide, a node
    # deeper than r - 1 or a plane its parent's span, before it writes: a
    # file that breaks an invariant, exit 4, naming the node; the tree, the
    # list and the key files stay as they were or unwritten
    for path in m8_dir.iterdir():
        (tmp_path / path.name).write_bytes(path.read_bytes())
    tree = tmp_path / "org.tree"
    doc = json.loads(tree.read_text())
    refusal = _add_defect(doc, defect,
                          serial.load_artifact(tmp_path / "gm.params").q)
    tree.write_text(json.dumps(doc))
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    monkeypatch.chdir(tmp_path)
    code, _, err = run(capsys, *command[:2], "--params", "gm.params",
                       "--tree", "org.tree", *command[2:])
    assert code == 4 and f"invariant violation: department {refusal}" \
        in err, err
    assert "Traceback" not in err
    assert {path.name: path.read_bytes()
            for path in tmp_path.iterdir()} == before


def test_dependent_department_is_refused_and_its_sibling_signs(tmp_path,
                                                               capsys):
    # mestre8 (r = 8): /a/b hand-edited with twice /a's hyperplane has /a's
    # whole space, so listing it would revoke /a/x's member too; join, dept
    # add and revoke group refuse the tree as they load it, exit 4, and the
    # member signs on
    params, gm_key = tmp_path / "gm.params", tmp_path / "gm.key"
    code, _, err = run(capsys, "setup", "--curve", "mestre8", *TOY[2:],
                       "--seed", "1", "--params-out", str(params),
                       "--gm-key-out", str(gm_key))
    assert code == 0, err
    tree = tmp_path / "org.tree"
    for seed, (parent, name) in enumerate([("/", "a"), ("/a", "x")], 2):
        code, _, err = run(capsys, "dept", "add", "--params", str(params),
                           "--tree", str(tree), "--parent", parent,
                           "--name", name, "--seed", str(seed))
        assert code == 0, err
    key, pub = tmp_path / "sib.key", tmp_path / "sib.pub"
    code, _, err = run(capsys, "member", "join", "--params", str(params),
                       "--tree", str(tree), "--gm-key", str(gm_key),
                       "--dept", "/a/x", "--id", "sib", "--key-out", str(key),
                       "--pub-out", str(pub), "--seed", "4")
    assert code == 0, err
    q = serial.load_artifact(params).q
    doc = json.loads(tree.read_text())
    a = doc["root"]["children"][0]
    a["children"].append({"children": [], "name": "b", "hyperplane": [
        str(2 * int(v) % q) for v in a["hyperplane"]]})
    tree.write_text(json.dumps(doc))
    code, _, err = run(capsys, "member", "join", "--params", str(params),
                       "--tree", str(tree), "--gm-key", str(gm_key),
                       "--dept", "/a/b", "--id", "eve",
                       "--key-out", str(tmp_path / "eve.key"),
                       "--pub-out", str(tmp_path / "eve.pub"), "--seed", "5")
    assert code == 4 and "/a/b stacks 2 hyperplanes of rank 1" in err
    assert not (tmp_path / "eve.key").exists()
    code, _, err = run(capsys, "dept", "add", "--params", str(params),
                       "--tree", str(tree), "--parent", "/a/b",
                       "--seed", "6")
    assert code == 4 and "/a/b stacks 2 hyperplanes of rank 1" in err
    rl = _write_empty_rl(tmp_path, params)
    before = rl.read_bytes()
    other = tmp_path / "other.rl"
    for out in ([], ["--out", str(other)]):
        code, _, err = run(capsys, "revoke", "group", "--params", str(params),
                           "--rl", str(rl), "--tree", str(tree),
                           "--dept", "/a/b", *out)
        assert code == 4 and "/a/b stacks 2 hyperplanes of rank 1" in err
        assert "Traceback" not in err
    assert rl.read_bytes() == before
    assert not other.exists()
    msg, sig = tmp_path / "msg.bin", tmp_path / "msg.sig"
    msg.write_bytes(b"still signs")
    code, _, err = run(capsys, "sign", "--params", str(params), "--key",
                       str(key), "--rl", str(rl), "--msg-file", str(msg),
                       "--out", str(sig), "--seed", "7")
    assert code == 0, err
    code, out, err = run(capsys, "verify", "--params", str(params), "--pub",
                         str(pub), "--rl", str(rl), "--msg-file", str(msg),
                         "--sig", str(sig))
    assert code == 0 and out.strip() == "Accept", err


def test_coalesce_on_a_tree_with_dependent_hyperplanes_exits_4(tmp_path,
                                                                 capsys):
    # mestre8 with /a/b/c0 and /a/b/c1 revoked, then /a/b's hyperplane
    # hand-edited to twice /a's: /a/b's space is then all of /a's, so
    # folding the family into an /a/b entry would revoke the sibling /a/x
    # too; coalesce refuses the tree as it loads it, exit 4, leaves the
    # list as it was, and /a/x's member still signs
    params, gm_key = tmp_path / "gm.params", tmp_path / "gm.key"
    code, _, err = run(capsys, "setup", "--curve", "mestre8", "--p", "10007",
                       "--q", "1009", "--seed", "1", "--params-out",
                       str(params), "--gm-key-out", str(gm_key))
    assert code == 0, err
    tree = tmp_path / "org.tree"
    for seed, path in enumerate(["/a", "/a/b", "/a/b/c0", "/a/b/c1", "/a/x"],
                                start=2):
        parent, name = path.rsplit("/", 1)
        code, _, err = run(capsys, "dept", "add", "--params", str(params),
                           "--tree", str(tree), "--parent", parent or "/",
                           "--name", name, "--seed", str(seed))
        assert code == 0, err
    key, pub = tmp_path / "dave.key", tmp_path / "dave.pub"
    code, _, err = run(capsys, "member", "join", "--params", str(params),
                       "--tree", str(tree), "--gm-key", str(gm_key),
                       "--dept", "/a/x", "--id", "dave", "--key-out",
                       str(key), "--pub-out", str(pub), "--seed", "9")
    assert code == 0, err
    rl = _write_empty_rl(tmp_path, params)
    for dept in ("/a/b/c0", "/a/b/c1"):
        code, _, err = run(capsys, "revoke", "group", "--params", str(params),
                           "--rl", str(rl), "--tree", str(tree),
                           "--dept", dept)
        assert code == 0, err
    q = serial.load_artifact(params).q
    doc = json.loads(tree.read_text())
    a = doc["root"]["children"][0]
    b = a["children"][0]
    assert (a["name"], b["name"]) == ("a", "b")
    b["hyperplane"] = [str(2 * int(v) % q) for v in a["hyperplane"]]
    bad_tree = tmp_path / "bad.tree"
    bad_tree.write_text(json.dumps(doc))
    before = rl.read_bytes()
    other = tmp_path / "other.rl"
    for out in ([], ["--out", str(other)]):
        code, _, err = run(capsys, "rl", "coalesce", "--params", str(params),
                           "--rl", str(rl), "--tree", str(bad_tree), *out)
        assert code == 4, err
        assert "/a/b stacks 2 hyperplanes of rank 1" in err
        assert "Traceback" not in err
    assert rl.read_bytes() == before
    assert not other.exists()
    msg = tmp_path / "msg.txt"
    msg.write_bytes(b"quarterly audit\n")
    code, _, err = run(capsys, "sign", "--params", str(params), "--key",
                       str(key), "--rl", str(rl), "--msg-file", str(msg),
                       "--out", str(tmp_path / "dave.sig"), "--seed", "10")
    assert code == 0, err
    # the unedited tree folds the same family into /a/b
    code, out, err = run(capsys, "rl", "coalesce", "--params", str(params),
                         "--rl", str(rl), "--tree", str(tree),
                         "--out", str(other))
    assert code == 0 and "coalesced" in out, err
    assert [g.path for g in serial.load_artifact(other).groups] == ["/a/b"]


def test_corrupt_artifact_exit_code(tmp_path, capsys):
    d = tmp_path
    params, gm_key, tree, members, rl, msg = _full_world(capsys, d)
    pub = members["alice"][1]
    doc = json.loads(pub.read_text())
    doc["point"][0] = str(int(doc["point"][0]) + 1)
    pub.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")))
    sig = d / "m.sig"
    run(capsys, "sign", "--params", str(params),
        "--key", str(members["alice"][0]), "--rl", str(rl),
        "--msg-file", str(msg), "--out", str(sig), "--seed", "7")
    code, _, err = run(capsys, "verify", "--params", str(params),
                       "--pub", str(pub), "--rl", str(rl),
                       "--msg-file", str(msg), "--sig", str(sig))
    assert code == 4 and "curve equation" in err

    # a keypair passed where the certificate belongs
    code, _, err = run(capsys, "verify", "--params", str(params),
                       "--pub", str(members["alice"][0]), "--rl", str(rl),
                       "--msg-file", str(msg), "--sig", str(sig))
    assert code == 2 and "does not hold a public key" in err

    # and a report, a tuple of another type, where the keypair belongs
    report = d / "orders.report"
    run(capsys, "lab", "orders", "--params", str(params), "--out", str(report))
    code, _, err = run(capsys, "sign", "--params", str(params),
                       "--key", str(report), "--rl", str(rl),
                       "--msg-file", str(msg), "--out", str(sig))
    assert code == 2 and "does not hold a keypair" in err


def test_sign_maps_retry_exhausted_to_exit_4(tmp_path, capsys,
                                            monkeypatch):
    params, _gm_key, _tree, members, rl, msg = _full_world(capsys, tmp_path)
    monkeypatch.setattr(sigma, "MAX_COLLAPSE_ATTEMPTS", 0)
    out = tmp_path / "msg.sig"
    code, _, err = run(capsys, "sign", "--params", str(params),
                       "--key", str(members["alice"][0]), "--rl", str(rl),
                       "--msg-file", str(msg), "--out", str(out),
                       "--seed", "6")
    assert code == 4 and "retry exhausted" in err
    assert not out.exists()


def test_console_entry_point(tmp_path):
    # both the cli module and the package are executable directly; this
    # exercises their __main__ paths
    for module in ("hrpks.cli", "hrpks"):
        proc = subprocess.run(
            [sys.executable, "-m", module, "reproduce", "toy17"],
            capture_output=True, text=True)
        assert proc.returncode == 0, (module, proc.stderr)
        assert "all values match" in proc.stdout


def test_setup_rank28_lists_no_generators(tmp_path, capsys):
    # the catalog lists no rank28 generators
    code, _, err = run(capsys, "setup", "--curve", "rank28",
                       "--p", str((1 << 127) - 1), "--q", str((1 << 89) - 1),
                       "--params-out", str(tmp_path / "x.params"),
                       "--gm-key-out", str(tmp_path / "x.key"))
    assert code == 2 and "lists no generators" in err


def _format_v1_world_in_v2(capsys, d):
    """The world of the FORMAT_V1 files, rebuilt as format-2 files in d."""
    params, gm_key = _setup(capsys, d, seed="1")
    tree, pub, rl, msg, sig = (d / name for name in (
        "org.tree", "alice.pub", "list.rl", "msg.txt", "msg.sig"))
    steps = [["dept", "add", "--params", params, "--tree", tree, "--parent",
              "/", "--name", name, "--seed", seed]
             for seed, name in (("2", "financial"), ("3", "hr"),
                                ("4", "engineering"))]
    steps.append(["member", "join", "--params", params, "--tree", tree,
                  "--gm-key", gm_key, "--dept", "/financial", "--id",
                  "alice", "--key-out", d / "alice.key", "--pub-out", pub,
                  "--seed", "5"])
    _write_empty_rl(d, params)
    steps.append(["revoke", "group", "--params", params, "--rl", rl,
                  "--tree", tree, "--dept", "/hr"])
    msg.write_bytes(b"wire transfer #42\n")
    steps.append(["sign", "--params", params, "--key", d / "alice.key",
                  "--rl", rl, "--msg-file", msg, "--out", sig, "--seed", "6"])
    for argv in steps:
        code, _, err = run(capsys, *map(str, argv))
        assert code == 0, err
    return {"params": params, "pub": pub, "rl": rl, "sig": sig}, msg


def test_format_v1_files_exit_2(tmp_path, capsys):
    v2, msg = _format_v1_world_in_v2(capsys, tmp_path)
    v1 = {"params": FORMAT_V1 / "gm.params", "pub": FORMAT_V1 / "alice.pub",
          "rl": FORMAT_V1 / "list.rl", "sig": FORMAT_V1 / "msg.sig"}
    assert '"version":"1"' in v1["sig"].read_text()
    assert '"gamma_seed_index"' in v1["sig"].read_text()

    def verify_with(files):
        return run(capsys, "verify", "--params", str(files["params"]),
                   "--pub", str(files["pub"]), "--rl", str(files["rl"]),
                   "--msg-file", str(msg), "--sig", str(files["sig"]))

    code, out, _ = verify_with(v2)
    assert code == 0 and out.strip() == "Accept"
    for name, path in v1.items():
        code, _, err = verify_with({**v2, name: path})
        assert code == 2, name
        assert "unsupported format version '1'" in err, name


def test_verify_cert_refuses_a_format_v1_certificate(tmp_path, capsys):
    v2, _msg = _format_v1_world_in_v2(capsys, tmp_path)
    params = serial.load_artifact(v2["params"])
    pk = serial.load_artifact(v2["pub"], curve=params.curve)
    assert verify_cert(params, pk)
    # the same key from the same seeds; only the certificate is format 1
    v1_doc = json.loads((FORMAT_V1 / "alice.pub").read_text())
    assert v1_doc["point"] == [str(pk.point.x), str(pk.point.y)]
    v1_cert = bytes.fromhex(v1_doc["cert"])
    assert b'"version":"1"' in v1_cert
    assert verify_cert(params, dataclasses.replace(pk, cert=v1_cert)) is False
    # relabeling it does not help: format 2 hashes another transcript
    relabeled = v1_cert.replace(b'"version":"1"', b'"version":"2"')
    assert verify_cert(params, dataclasses.replace(pk, cert=relabeled)) \
        is False


def test_readme_library_example_runs():
    text = README.read_text(encoding="utf-8")
    block = text.split("## Library surface", 1)[1]
    block = block.split("```python\n", 1)[1].split("```", 1)[0]
    # toy17's generator orders are below 2^mask_bits, and setup says so
    with pytest.warns(UserWarning, match="orders"):
        exec(compile(block, "README.md", "exec"), {})


def _readme_walkthrough():
    """(command, exit code) for each command of the README's command-line
    walkthrough; the code is 0 unless a `# -> exit N` comment follows."""
    text = README.read_text(encoding="utf-8")
    block = text.split("## Command-line walkthrough", 1)[1]
    block = block.split("```sh\n", 1)[1].split("```", 1)[0]
    steps = []
    # sh joins a line ending in a backslash to the next, quotes or not
    for line in block.replace("\\\n", "").splitlines():
        line = line.strip()
        stated = re.fullmatch(r"# -> exit (\d+).*", line)
        if stated:
            steps[-1][1] = int(stated.group(1))
        elif line and not line.startswith("#"):
            steps.append([line, 0])
    return steps


def test_readme_walkthrough_exit_codes(tmp_path, capsys, monkeypatch):
    steps = _readme_walkthrough()
    # alice's sign after her own revocation, and carol's under a revoked
    # ancestor department on mestre8
    assert [code for _, code in steps].count(3) == 2
    assert sum(cmd.startswith("hrpks ") for cmd, _ in steps) >= 15
    # the other lines run in sh, with `python3` the interpreter under test
    # and the package importable from where it was imported here
    shim = tmp_path / "bin"
    shim.mkdir()
    python3 = shim / "python3"
    python3.write_text(f'#!/bin/sh\nexec "{sys.executable}" "$@"\n')
    python3.chmod(0o755)
    env = dict(os.environ,
               PATH=f"{shim}{os.pathsep}{os.environ.get('PATH', '')}",
               PYTHONPATH=str(Path(hrpks.__file__).resolve().parents[1]))
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    for command, expected in steps:
        if command.startswith("hrpks "):
            code = main(shlex.split(command)[1:])
            err = capsys.readouterr().err
        else:
            proc = subprocess.run(["sh", "-c", command], cwd=work, env=env,
                                  capture_output=True, text=True)
            code, err = proc.returncode, proc.stderr
        assert code == expected, f"{command}: exit {code}\n{err}"


# One representative argv per command and the namespace it parsed to under
# the parser tree this table replaced, less `func` and the dests that named
# the command words, which nothing read.
NAMESPACES = [
    (["setup", "--curve", "toy17", "--p", "97", "--q", "257"],
     {"curve": "toy17", "p": 97, "q": 257, "lc": None, "ls": 64,
      "seed": None, "params_out": "gm.params", "gm_key_out": "gm.key"}),
    (["dept", "add", "--params", "gm.params", "--tree", "org.tree"],
     {"params": "gm.params", "tree": "org.tree", "parent": "/",
      "name": None, "seed": None}),
    (["member", "join", "--params", "gm.params", "--tree", "org.tree",
      "--gm-key", "gm.key", "--dept", "/financial", "--id", "alice",
      "--key-out", "a.key", "--pub-out", "a.pub", "--seed", "5"],
     {"params": "gm.params", "tree": "org.tree", "gm_key": "gm.key",
      "dept": "/financial", "id": "alice", "key_out": "a.key",
      "pub_out": "a.pub", "seed": 5}),
    (["sign", "--params", "gm.params", "--key", "a.key", "--rl", "list.rl",
      "--msg-file", "m.txt", "--out", "m.sig"],
     {"params": "gm.params", "key": "a.key", "rl": "list.rl",
      "msg_file": "m.txt", "out": "m.sig", "seed": None}),
    (["verify", "--params", "gm.params", "--pub", "a.pub", "--rl", "list.rl",
      "--msg-file", "m.txt", "--sig", "m.sig"],
     {"params": "gm.params", "pub": "a.pub", "rl": "list.rl",
      "msg_file": "m.txt", "sig": "m.sig", "json": False}),
    (["revoke", "member", "--params", "gm.params", "--rl", "list.rl",
      "--pub", "a.pub"],
     {"params": "gm.params", "rl": "list.rl", "pub": "a.pub", "out": None}),
    (["revoke", "group", "--params", "gm.params", "--rl", "list.rl",
      "--tree", "org.tree", "--dept", "/hr"],
     {"params": "gm.params", "rl": "list.rl", "tree": "org.tree",
      "dept": "/hr", "out": None}),
    (["rl", "coalesce", "--params", "gm.params", "--rl", "list.rl",
      "--tree", "org.tree"],
     {"params": "gm.params", "rl": "list.rl", "tree": "org.tree",
      "out": None}),
    (["lab", "relations", "--params", "gm.params", "--bound", "3",
      "--out", "r.report"],
     {"params": "gm.params", "bound": 3, "out": "r.report"}),
    (["lab", "orders", "--params", "gm.params", "--out", "o.report"],
     {"params": "gm.params", "out": "o.report"}),
    (["reproduce", "toy17"], {"example": "toy17"}),
]


def test_every_command_parses_to_its_pinned_namespace():
    named = [next(w for w in COMMANDS if tuple(argv[:len(w)]) == w)
             for argv, _ in NAMESPACES]
    assert sorted(named) == sorted(COMMANDS)
    for words, (argv, expected) in zip(named, NAMESPACES):
        got = vars(build_parser(words).parse_args(argv[len(words):]))
        assert got.pop("func") is COMMANDS[words][0]
        assert got == expected, argv


def test_usage_paths_exit_through_argparse(capsys):
    for argv in ([], ["dept"], ["bogus"], ["dept", "bogus"], ["--", "sign"],
                 ["sign", "--params", "p", "--key", "k", "--rl", "r",
                  "--msg-file", "m"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
    assert "required: --out" in capsys.readouterr().err

    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for words in COMMANDS:
        assert f"  {' '.join(words)} " in out, words

    with pytest.raises(SystemExit) as exc:
        main(["dept", "add", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: hrpks dept add ")
    assert "--parent PARENT" in out


def test_one_parser_per_command(tmp_path, capsys, monkeypatch):
    # parsers are cached by command words: a command's second call builds
    # none, another command builds its own, and words that name no command
    # share the one general parser, so they cannot grow the cache
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    build_parser.cache_clear()
    missing = str(tmp_path / "missing.params")
    for _ in range(2):
        code = main(["verify", "--params", missing, "--pub", "x", "--rl", "y",
                     "--msg-file", "z", "--sig", "w"])
        assert code == 2
    assert built == ["hrpks verify"]
    code = main(["revoke", "member", "--params", missing, "--rl", "y",
                 "--pub", "x"])
    assert code == 2
    assert built == ["hrpks verify", "hrpks revoke member"]
    for argv in (["bogus"], ["dept", "bogus"], ["--", "sign"], []):
        with pytest.raises(SystemExit):
            main(argv)
    assert built == ["hrpks verify", "hrpks revoke member", "hrpks"]
    assert build_parser.cache_info().currsize == 3
