"""Byte-identity of the command line's output.

Each case runs ``cli.main`` in process from the repository root and compares
its exit code and the sha256 of its stdout with the recorded value.  A change
meant to keep every output the same must pass this file unchanged; a change
that alters output on purpose re-records the affected rows and says why.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from memlang import cli

ROOT = Path(__file__).resolve().parent.parent

# argv -> (exit code, sha256 of stdout)
GOLDEN = {
    "check programs/golden_trace.mem": (0, "a48a3848d817c59482aadcbcbf70dd24a47eafb5f290375fcce4db8922a15735"),
    "denote programs/golden_trace.mem": (2, "087fd4735baee61041431128ca7d84e6b5ee97ffa3b5ef9391bcb8084ba3c1c2"),
    "enumerate programs/golden_trace.mem": (0, "524a3175b8264156ff94e7ab4d1a7a3216c1a527f38d2119f2b7b16defc98ca4"),
    "enumerate --observe programs/golden_trace.mem": (0, "0697607c76e6825b84105649dac5144a4b9814348279678853df0964820a52a8"),
    "soundness programs/golden_trace.mem": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "check programs/reject_apply_binder.mem": (0, "694ee790b057d53d5e5d3eba7253f3adced1c0eb1e54b959de26c167310a1fff"),
    "denote programs/reject_apply_binder.mem": (2, "cd3d0463c2ed58dbd71abea3ea6a590c7234f5cb823f91555c84a017028f3e7d"),
    "enumerate programs/reject_apply_binder.mem": (0, "f61514a57d921a55ce3dd50114dc7db13403324635c901bca2f96dfcd1616a4d"),
    "enumerate --observe programs/reject_apply_binder.mem": (0, "00eae37c21bd33c40dfb2444467033b685e01cbfefe9851d2701f26fdf17ba32"),
    "soundness programs/reject_apply_binder.mem": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "check programs/reject_negation.mem": (0, "b030f9d2cf0bdce80f1d710293519568176e13498b85174759418ce9fc3a9f17"),
    "denote programs/reject_negation.mem": (2, "f4b41abf1328b3738abc600768fac2bab81ec5b3ed68b79d6e01964271bf78c2"),
    "enumerate programs/reject_negation.mem": (0, "06c242bef16e217035786f3ce71d07a779133616b821aca394adb12d0bc0441f"),
    "enumerate --observe programs/reject_negation.mem": (0, "81b6ff9d39dcc92710d19c7abeebc2e3d996aa9630cbb27094badd7abcada08c"),
    "soundness programs/reject_negation.mem": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "check programs/sound/diag_one_app.mem": (0, "59457a6f8210a311a6a5ed94c9bfb665f1f092f8038e0372b68e7ecd257249cb"),
    "denote programs/sound/diag_one_app.mem": (0, "9e7beae73e666296965098f32d708f1d63ce60610e7a17493a09d0c5665ce87e"),
    "enumerate programs/sound/diag_one_app.mem": (0, "950be3334deed8652761665946aa27d966e1387dbf703ea7a657731b41eb9581"),
    "enumerate --observe programs/sound/diag_one_app.mem": (0, "d513f87b47cddb95e0d4c1ff64314a69bba9e0ce78509733ba0bd78e10ce66d5"),
    "soundness programs/sound/diag_one_app.mem": (0, "176c01daa8c517f9ec9ecd996fdea2e4c20895ffdb4995466ffe089915b6f524"),
    "check programs/sound/diag_two_apps.mem": (0, "00023486dacbbdc22ebe65f6e2c5fda292ba61a4f4414ac5b5efffb86ed5963d"),
    "denote programs/sound/diag_two_apps.mem": (0, "84c00e5d8d703c88a25b493f1a8d104861cf2fa5b778a6b73d1c288b19fcaf60"),
    "enumerate programs/sound/diag_two_apps.mem": (0, "076eb77d6244c67c7ff2b334bd41f0bb580161caed6986af6a550fc7b093a646"),
    "enumerate --observe programs/sound/diag_two_apps.mem": (0, "4edfaaeee9cdda2618752d4611715595d8b7b708278ddcde5770bb8401e9ef96"),
    "soundness programs/sound/diag_two_apps.mem": (0, "902e2f13ac2f32e3694a84a4262de3ad0ed48926ddd5a6a20c8dd5e82b946d3d"),
    "check programs/sound/diffuse_eq.mem": (0, "217c7b6950b0ecaf246aeb2bffbd132059c7656d19a5de23e562f5f928933e3a"),
    "denote programs/sound/diffuse_eq.mem": (0, "071c05eba97c47ca177acb6336b28acdfba3334ea3bce4df6fbae8a8d8f8c9c4"),
    "enumerate programs/sound/diffuse_eq.mem": (0, "e26debaef3f26ee21f11941f487597ca0e77a81a1b27de7776dfc98cc7469841"),
    "enumerate --observe programs/sound/diffuse_eq.mem": (0, "b1aa2ba4f80bff96e645619afcee01f9609df999c140aad3b426627361a00681"),
    "soundness programs/sound/diffuse_eq.mem": (0, "4ccc0a475bd456a5a6cfc20effa22122b19acb19c30f293405fb8cd953d2a0f4"),
    "check programs/sound/fresh_invariant_pos.mem": (0, "c9ee196e39dc22c6f64affde68846358c8362aa8a8747f976305a1e1dda8f2a0"),
    "denote programs/sound/fresh_invariant_pos.mem": (0, "007851aedd64684353a48176f3851693d1061fc13f4f6e6a6738a90c8c14675f"),
    "enumerate programs/sound/fresh_invariant_pos.mem": (0, "b414ad7b78f42184df1cf74a8ffa9282ad5d881cd911e2e63a3ce285c32daca6"),
    "enumerate --observe programs/sound/fresh_invariant_pos.mem": (0, "dccc4e77f58c2b0bcb16eaa2b369b0b5b5876d68c717f3adc95f21b138f22c62"),
    "soundness programs/sound/fresh_invariant_pos.mem": (0, "de388975672408527a727e7bfc8e64558b313f3bb302ecdede7edd5d00529d30"),
    "check programs/sound/memo_pair.mem": (0, "8d49a6145da812393722df4cbaeea14e7a37d378c05f55fdcce937897d30c330"),
    "denote programs/sound/memo_pair.mem": (0, "8531f094b21d6be2d3e1685acb41d24d03c7854c58a2698fa99dec95e80b3bc3"),
    "enumerate programs/sound/memo_pair.mem": (0, "b1d8f35cdf898de9a595a4edfbf9fa717622a1bb3e3ed77f1093b98b7afc95a8"),
    "enumerate --observe programs/sound/memo_pair.mem": (0, "f7ee6ed9042dba57b3929abb8d19884e294907fd6ad787da72dc47c822ac0471"),
    "soundness programs/sound/memo_pair.mem": (0, "f6e6dcdf16284ce47361f70a417b2bbd5ca47d21d4321910600ef35dffb79e24"),
    "check programs/sound/p1_half.mem": (0, "c25f75bd15a95ab99a00e2770ec7f3423a7838fd33cc4ca0ed8e67db8aa0df22"),
    "denote programs/sound/p1_half.mem": (0, "915627034980d212db39247e355fe1b7da6c3b7934a83b6c9ab3d6ee1073d759"),
    "enumerate programs/sound/p1_half.mem": (0, "0d0b718974daef21018552f2da63259f6da931e74dcb5fe7e9ce3ff5625e9395"),
    "enumerate --observe programs/sound/p1_half.mem": (0, "6b169e8cf3dd5c0931554124e3a34fa6b8617432f7c487199ef3969148f47686"),
    "soundness programs/sound/p1_half.mem": (0, "35d7d516d9d832298f465591ffce33e5e1f5bcd193a13f755623017499152646"),
    "check programs/sound/p1_third.mem": (0, "5834c9acbb0ca00519abd0082157125529808ea4c2cb044a869cb8d717529f23"),
    "denote programs/sound/p1_third.mem": (0, "72285ae30d3bebe6a0fe5bce7cc6c792e73941a4c4908d9d53a673456144e242"),
    "enumerate programs/sound/p1_third.mem": (0, "9a4b14d5f8a55b2ed5d978c64abb7b47c760d59930cf8806922b5d9a5be247f8"),
    "enumerate --observe programs/sound/p1_third.mem": (0, "39ff0c14684d3d4cc74ef4674b96670b50a867500c70e01b2bc18138cb876ef0"),
    "soundness programs/sound/p1_third.mem": (0, "0c9a146db886d3e499b820d789071dab789edbfc9462d7c6578da6c8a8c7f518"),
    "check programs/sound/pair_mixed.mem": (0, "ed1a1a0bf504074750eaf8fa7982f17bf264e372851f1b3558c73c01e01181cb"),
    "denote programs/sound/pair_mixed.mem": (0, "3f74e9e18413a3f3c9eb1a54a5c1e4b9c8e1358eeb871d50a0d68107f273bab7"),
    "enumerate programs/sound/pair_mixed.mem": (0, "a12566d2d001cbc650bde88c81cacfcb6ef8726de23ec23bf448cd9e422d0ce0"),
    "enumerate --observe programs/sound/pair_mixed.mem": (0, "6690b31d204b708944455435a0e5b4b64e3c4f313e41a8df05f688b8bc4df6d3"),
    "soundness programs/sound/pair_mixed.mem": (0, "943e0ff98f86caaa85bcb0b74899c854c83c2f52f8f35b060f6b58bd90d71ed5"),
    "check programs/sound/undef_edge_terminal.mem": (0, "a048e53b1e7799fc8ea635cfbebfdbddab1d376b5e248ef2a8281b779010cd49"),
    "denote programs/sound/undef_edge_terminal.mem": (0, "c296308335a54960eab3b9499f40414c48e3740ae612a12ba2c9879ebaeb864d"),
    "enumerate programs/sound/undef_edge_terminal.mem": (0, "6409e4bc03cd2e7b15ccb71dd43d3323b0bf010861b73852be43e5504361f3ca"),
    "enumerate --observe programs/sound/undef_edge_terminal.mem": (0, "f206cfd70723d6ba5a7dcfbd1b3bc0dc6ee9d34aa633dc6785ae3d90b64d98dd"),
    "soundness programs/sound/undef_edge_terminal.mem": (0, "926bf8f343f3c9fc47af24c2a1c80d1a05bf0aa137421c32b58e14f0ed55efab"),
    "run --trace --seed 0 programs/golden_trace.mem": (0, "011cf143ca3a84f8082ab7cd7627f895682b95694604e4037aa21a880265710d"),
    "soundness --dir programs/sound": (0, "1d82ac26ee506132ab0bc8f9b0d79981e492dea40599c65e562aaf53c08f4dab"),
    "laws --mem --count 30 --seed 0": (0, "99149b7e8be0462636c1c78f92f5f36491ba9c0e77c85dcf2691ca9847c525f4"),
    "laws --dataflow --count 30 --seed 0": (0, "8d2a086df84871d67f8de65fbf4723363039c7ab4d5f66da91774d41d528341f"),
    "laws --monad --count 30 --seed 0": (0, "60617b63184e576828980b0c8a2d14af096cea72be04ad0a2e5379d1b214477c"),
}


@pytest.mark.parametrize("argv", sorted(GOLDEN))
def test_golden_output(argv, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.delenv("MEMLANG_MAX_UNDEF", raising=False)
    code = cli.main(argv.split())
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert (code, digest) == GOLDEN[argv]


def test_soundness_dir_is_the_same_under_python_O():
    # `python -O` strips assert statements; the checks that remain must not
    # depend on them, on the soundness check or on the observation path
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    env.pop("MEMLANG_MAX_UNDEF", None)
    for argv in (
        "soundness --dir programs/sound",
        "enumerate --observe programs/golden_trace.mem",
        "laws --mem --count 30 --seed 0",
    ):
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "memlang.cli", *argv.split()],
            cwd=ROOT, env=env, capture_output=True, check=False,
        )
        assert (proc.returncode, hashlib.sha256(proc.stdout).hexdigest()) == GOLDEN[argv], argv


def test_golden_set_covers_every_bundled_program():
    for path in (ROOT / "programs").rglob("*.mem"):
        assert f"soundness {path.relative_to(ROOT).as_posix()}" in GOLDEN, path
