import json
import subprocess
import sys

from hrpks import serial
from hrpks.cli import main

TOY = ["--curve", "toy17", "--p", "3123456773", "--q", "3123456773"]


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
                       "--method", "mitm", "--out", str(d / "rel.report"))
    assert code == 0 and "relations" in out
    report = serial.load_artifact(d / "rel.report")
    assert (103, 0) in report.relations

    code, out, _ = run(capsys, "lab", "orders", "--params",
                       str(d / "s.params"), "--out", str(d / "ord.report"))
    assert code == 0 and "103" in out
    assert serial.load_artifact(d / "ord.report").orders == (103, 103)


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

    code, _, err = run(capsys, "verify", "--params",
                       str(tmp_path / "missing.params"), "--pub", "x",
                       "--rl", "y", "--msg-file", "z", "--sig", "w")
    assert code == 2


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


def test_console_entry_point(tmp_path):
    # the module is executable directly; exercises the __main__ path
    proc = subprocess.run(
        [sys.executable, "-m", "hrpks.cli", "reproduce", "toy17"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "all values match" in proc.stdout


def test_setup_rank28_lists_no_generators(tmp_path, capsys):
    # only toy17 publishes generators in the catalog
    code, _, err = run(capsys, "setup", "--curve", "rank28",
                       "--p", str((1 << 127) - 1), "--q", str((1 << 89) - 1),
                       "--params-out", str(tmp_path / "x.params"),
                       "--gm-key-out", str(tmp_path / "x.key"))
    assert code == 2 and "lists no generators" in err
