"""A golden table for the CLI: about 150 commands run in-process, each
compared with its recorded (exit code, sha256 of stdout).

The commands cover `alexander`, `trop` under six coefficient settings,
`kaehler-test` and `bns-bound` under five settings, on the bundled
documents and on six small documents written under tmp_path, plus three
`bns-bound` commands with two representations under four settings each.
Print a fresh table with

    PYTHONPATH=src python tests/test_cli_table.py

and paste it over TABLE, after checking every changed line by hand.
"""

import hashlib
import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from troplex.cli import main
from troplex.jobspec import bundled_path

TRIVIAL = {"ring": "Z", "trivial": True}
SMALL = {
    "free2": (["x1", "x2"], [], {"trivial": TRIVIAL}),
    "z": (["x1"], [], {"trivial": TRIVIAL, "rank2": dict(TRIVIAL, rank=2)}),
    "bs12": (["a", "b"], ["a b a^-1 b^-2"], {"trivial": TRIVIAL}),
    "torus": (["x1", "x2"], ["x1 x2 x1^-1 x2^-1"], {"trivial": TRIVIAL}),
    # collinear Newton polytopes: 1 + 2*t2 (a non-unit end), 1 + t2 + t2^2
    "col1": (["x1", "x2"], ["x2 x2 x1 x2^-1 x1^-1 x2 x1 x2^-1 x2^-1 x1^-1"],
             {"trivial": TRIVIAL}),
    "col2": (["x1", "x2"], ["x1^-1 x2 x2 x2 x1 x2^-1 x2^-1 x2^-1"],
             {"trivial": TRIVIAL}),
}
BUNDLED = {
    "one_relator": ["s3", "trivial"],
    "orbifold_g2": ["trivial"],
    "wraag_k4": ["trivial"],
}
TROP = ["Z", "trivial", "p-adic:2", "p-adic:3", "fp:2", "fp:3"]
BOUND = ["Z", "trivial", "p-adic:3", "fp:2", "fp:3"]
# two representations under four settings in one command, so that the
# settings of one representation share its jump ideal
SHARED = ("bns-bound {one_relator} --rep s3 --rep trivial"
          " --valuation Z --valuation p-adic:3 --valuation fp:2 --valuation trivial")


def commands():
    """Every command of the table, with {document} placeholders."""
    reps = dict(BUNDLED)
    reps.update({name: sorted(spec[2]) for name, spec in SMALL.items()})
    out = []
    for doc, names in reps.items():
        for rep in names:
            out.append(f"alexander {{{doc}}} --rep {rep}")
            out += [f"trop {{{doc}}} --rep {rep} --valuation {v}" for v in TROP]
            out.append(f"kaehler-test {{{doc}}} --rep {rep} --fields q,fp:2,fp:3")
            out += [f"bns-bound {{{doc}}} --rep {rep} --valuation {v}" for v in BOUND]
    out += [SHARED, f"{SHARED} --fixture brown_one_relator", f"{SHARED} --check-finite-image"]
    return out


def documents(folder):
    """Paths of the bundled documents and of the small ones, written to folder."""
    paths = {name: str(bundled_path(f"{name}.json")) for name in BUNDLED}
    for name, (generators, relators, representations) in SMALL.items():
        path = Path(folder) / f"{name}.json"
        path.write_text(json.dumps({
            "name": name,
            "presentation": {"generators": generators, "relators": relators},
            "representations": representations,
        }))
        paths[name] = str(path)
    return paths


def outcome(command, paths):
    """(exit code, sha256 of stdout, stderr) of one command."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main([word.format(**paths) for word in command.split()])
    return rc, hashlib.sha256(out.getvalue().encode()).hexdigest(), err.getvalue()


TABLE = {
    'alexander {one_relator} --rep s3': (0, '5b48401e5c3958ae21d12aa462a630da1e0901f4074020774acf9e177b3f75c7'),
    'trop {one_relator} --rep s3 --valuation Z': (0, '7b1edb349d3c70dc95dfa76310ae81a3ec8c7f2dcd89dbdf6baf4cb82c6e5516'),
    'trop {one_relator} --rep s3 --valuation trivial': (0, '5f4148c45e32a804d3ca7f06c2cc1806c05d561d3dd6bdeddee6789b034a1c1a'),
    'trop {one_relator} --rep s3 --valuation p-adic:2': (0, 'c7990109358cac58dbf53b12d950c8602369ec2824d79a70247c3c2053468254'),
    'trop {one_relator} --rep s3 --valuation p-adic:3': (0, 'a2b7975ed3400cab86cc39202442976571bea07a66293510fd99cec8a88f1798'),
    'trop {one_relator} --rep s3 --valuation fp:2': (0, 'c7990109358cac58dbf53b12d950c8602369ec2824d79a70247c3c2053468254'),
    'trop {one_relator} --rep s3 --valuation fp:3': (0, '6cf87503c3547b2001c8f6879f573e8bb5e0f0dccc2cc92073aa2a5a7154a2d5'),
    'kaehler-test {one_relator} --rep s3 --fields q,fp:2,fp:3': (0, '87eaa004b466f1e35e249900300c29e5c8dff98a0bda468537a63ec16101be0c'),
    'bns-bound {one_relator} --rep s3 --valuation Z': (0, 'aa2e149f209688b3009204959567a9d7d6dd802fbc80fd0ebacfc25b08734f3c'),
    'bns-bound {one_relator} --rep s3 --valuation trivial': (0, '46305df4d4a49f86a4bcc8946c7cf6e3e7c67193164d1f67b01f16ebba5f5fd0'),
    'bns-bound {one_relator} --rep s3 --valuation p-adic:3': (0, '946a0a9ce198e88d87909719a4a8ddb3d9a6285b6fe8fb21ecbedf2047fe2a39'),
    'bns-bound {one_relator} --rep s3 --valuation fp:2': (0, '247606f28071014fb2d9b0f4f9bbba08aa3df0cdb4c1343d9cc474afb9721076'),
    'bns-bound {one_relator} --rep s3 --valuation fp:3': (0, 'af4956201956217cfaf5453f442d8bb0af856e739934337136d203f57bbef86f'),
    'alexander {one_relator} --rep trivial': (0, 'ea1eb90fa274accb35bc2a9b6168ab5de1da9de9647c5e8429cfced48d6df11f'),
    'trop {one_relator} --rep trivial --valuation Z': (0, '9c343a09e22880d34ea777ad7ac451d5107bf357ef11eb3223f90aa52cbd82cc'),
    'trop {one_relator} --rep trivial --valuation trivial': (0, '9c343a09e22880d34ea777ad7ac451d5107bf357ef11eb3223f90aa52cbd82cc'),
    'trop {one_relator} --rep trivial --valuation p-adic:2': (0, '9c343a09e22880d34ea777ad7ac451d5107bf357ef11eb3223f90aa52cbd82cc'),
    'trop {one_relator} --rep trivial --valuation p-adic:3': (0, '9c343a09e22880d34ea777ad7ac451d5107bf357ef11eb3223f90aa52cbd82cc'),
    'trop {one_relator} --rep trivial --valuation fp:2': (0, '9c343a09e22880d34ea777ad7ac451d5107bf357ef11eb3223f90aa52cbd82cc'),
    'trop {one_relator} --rep trivial --valuation fp:3': (0, '9c343a09e22880d34ea777ad7ac451d5107bf357ef11eb3223f90aa52cbd82cc'),
    'kaehler-test {one_relator} --rep trivial --fields q,fp:2,fp:3': (0, '4cee808f43ede81d6f1923ba62f3bc4d6a4daebe90b98d80fc598549317d6789'),
    'bns-bound {one_relator} --rep trivial --valuation Z': (0, '11d5f081ab5cd8213f5a7d4d03b437417ceadd50f59a6ff5e306e66196dafcd6'),
    'bns-bound {one_relator} --rep trivial --valuation trivial': (0, '172df02b5fea0d455370cbf5bb9666777516a8e32ea2b544a9277bc116e25620'),
    'bns-bound {one_relator} --rep trivial --valuation p-adic:3': (0, '01df154672fdd647b097e361a04cd41df963807c8674bd05c45edf5dbe724589'),
    'bns-bound {one_relator} --rep trivial --valuation fp:2': (0, '907df75c8efea1ab11e6d37acea5740f1d724e983fb5bbf0eed958a96b433edc'),
    'bns-bound {one_relator} --rep trivial --valuation fp:3': (0, '6a1fffac78b4ff214aa2e6396ae78002e3b5cb6d3457697f8bbfc80bf37843eb'),
    'alexander {orbifold_g2} --rep trivial': (0, '9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa'),
    'trop {orbifold_g2} --rep trivial --valuation Z': (3, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'trop {orbifold_g2} --rep trivial --valuation trivial': (3, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'trop {orbifold_g2} --rep trivial --valuation p-adic:2': (3, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'trop {orbifold_g2} --rep trivial --valuation p-adic:3': (3, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'trop {orbifold_g2} --rep trivial --valuation fp:2': (3, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'trop {orbifold_g2} --rep trivial --valuation fp:3': (3, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'kaehler-test {orbifold_g2} --rep trivial --fields q,fp:2,fp:3': (0, 'b41bd24811336a5284765f812531ba2759cbce4b1e23ab3ca854ad8a975cf738'),
    'bns-bound {orbifold_g2} --rep trivial --valuation Z': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'bns-bound {orbifold_g2} --rep trivial --valuation trivial': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'bns-bound {orbifold_g2} --rep trivial --valuation p-adic:3': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'bns-bound {orbifold_g2} --rep trivial --valuation fp:2': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'bns-bound {orbifold_g2} --rep trivial --valuation fp:3': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'alexander {wraag_k4} --rep trivial': (0, '4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865'),
    'trop {wraag_k4} --rep trivial --valuation Z': (0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'trop {wraag_k4} --rep trivial --valuation trivial': (0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'trop {wraag_k4} --rep trivial --valuation p-adic:2': (0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'trop {wraag_k4} --rep trivial --valuation p-adic:3': (0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'trop {wraag_k4} --rep trivial --valuation fp:2': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'trop {wraag_k4} --rep trivial --valuation fp:3': (0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'kaehler-test {wraag_k4} --rep trivial --fields q,fp:2,fp:3': (0, '268dbe742985bbcffcaaf49fdd3ebccfa9ab514a5f6d0ac5912b5332dc84302a'),
    'bns-bound {wraag_k4} --rep trivial --valuation Z': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'bns-bound {wraag_k4} --rep trivial --valuation trivial': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'bns-bound {wraag_k4} --rep trivial --valuation p-adic:3': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'bns-bound {wraag_k4} --rep trivial --valuation fp:2': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'bns-bound {wraag_k4} --rep trivial --valuation fp:3': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'alexander {free2} --rep trivial': (0, '9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa'),
    'trop {free2} --rep trivial --valuation Z': (0, 'fed66ebda5f5ddaf808c0caa1db87cc662c928d431b338f57c973c2f46f742e4'),
    'trop {free2} --rep trivial --valuation trivial': (0, 'fed66ebda5f5ddaf808c0caa1db87cc662c928d431b338f57c973c2f46f742e4'),
    'trop {free2} --rep trivial --valuation p-adic:2': (0, 'fed66ebda5f5ddaf808c0caa1db87cc662c928d431b338f57c973c2f46f742e4'),
    'trop {free2} --rep trivial --valuation p-adic:3': (0, 'fed66ebda5f5ddaf808c0caa1db87cc662c928d431b338f57c973c2f46f742e4'),
    'trop {free2} --rep trivial --valuation fp:2': (0, 'fed66ebda5f5ddaf808c0caa1db87cc662c928d431b338f57c973c2f46f742e4'),
    'trop {free2} --rep trivial --valuation fp:3': (0, 'fed66ebda5f5ddaf808c0caa1db87cc662c928d431b338f57c973c2f46f742e4'),
    'kaehler-test {free2} --rep trivial --fields q,fp:2,fp:3': (0, 'b41bd24811336a5284765f812531ba2759cbce4b1e23ab3ca854ad8a975cf738'),
    'bns-bound {free2} --rep trivial --valuation Z': (0, '1fd1661450c534da1d1803084895080d95647c2a04a061e8901e1f401e3faadf'),
    'bns-bound {free2} --rep trivial --valuation trivial': (0, '69443343565695e85707363858f819b5cb5717586f17665b6c947be77ae150e6'),
    'bns-bound {free2} --rep trivial --valuation p-adic:3': (0, '18b9b56c8a8bef0e62cd55f6aea5e635a6b05e01b84d4edb32f1810b8d8cfdfd'),
    'bns-bound {free2} --rep trivial --valuation fp:2': (0, '5811b482605620e9254bad14b71231beeb12808354dc28d4fc9c7e7350bc5f56'),
    'bns-bound {free2} --rep trivial --valuation fp:3': (0, 'e09c51b303984b5b4e1d8118ab165895840f05f087856869bb504f75ab1cf9b7'),
    'alexander {z} --rep rank2': (0, '4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865'),
    'trop {z} --rep rank2 --valuation Z': (0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'trop {z} --rep rank2 --valuation trivial': (0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'trop {z} --rep rank2 --valuation p-adic:2': (0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'trop {z} --rep rank2 --valuation p-adic:3': (0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'trop {z} --rep rank2 --valuation fp:2': (0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'trop {z} --rep rank2 --valuation fp:3': (0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'kaehler-test {z} --rep rank2 --fields q,fp:2,fp:3': (0, '2d19d13b44770e1257c4d02037452fc26a913cf6a3d6c97c08574c835cd02f8e'),
    'bns-bound {z} --rep rank2 --valuation Z': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'bns-bound {z} --rep rank2 --valuation trivial': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'bns-bound {z} --rep rank2 --valuation p-adic:3': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'bns-bound {z} --rep rank2 --valuation fp:2': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'bns-bound {z} --rep rank2 --valuation fp:3': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'alexander {z} --rep trivial': (0, '4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865'),
    'trop {z} --rep trivial --valuation Z': (0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'trop {z} --rep trivial --valuation trivial': (0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'trop {z} --rep trivial --valuation p-adic:2': (0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'trop {z} --rep trivial --valuation p-adic:3': (0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'trop {z} --rep trivial --valuation fp:2': (0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'trop {z} --rep trivial --valuation fp:3': (0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'kaehler-test {z} --rep trivial --fields q,fp:2,fp:3': (0, '2d19d13b44770e1257c4d02037452fc26a913cf6a3d6c97c08574c835cd02f8e'),
    'bns-bound {z} --rep trivial --valuation Z': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'bns-bound {z} --rep trivial --valuation trivial': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'bns-bound {z} --rep trivial --valuation p-adic:3': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'bns-bound {z} --rep trivial --valuation fp:2': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'bns-bound {z} --rep trivial --valuation fp:3': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'alexander {bs12} --rep trivial': (0, '3efdb57e3a765d257167602686d29b0b439c4b85009b6253d477056e09b3c1db'),
    'trop {bs12} --rep trivial --valuation Z': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'trop {bs12} --rep trivial --valuation trivial': (0, 'ee325d88d8a246389732c9d411c190c87431505286e431ed883d0cba4dd7a2b2'),
    'trop {bs12} --rep trivial --valuation p-adic:2': (0, '3b0ba0371f60c42a59ffe17d8869710a69f2eff1a2455b1e0298e388717ca355'),
    'trop {bs12} --rep trivial --valuation p-adic:3': (0, 'ee325d88d8a246389732c9d411c190c87431505286e431ed883d0cba4dd7a2b2'),
    'trop {bs12} --rep trivial --valuation fp:2': (0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'trop {bs12} --rep trivial --valuation fp:3': (0, 'ee325d88d8a246389732c9d411c190c87431505286e431ed883d0cba4dd7a2b2'),
    'kaehler-test {bs12} --rep trivial --fields q,fp:2,fp:3': (0, '51971e3f58dc5d28572be47682a9fcc26761634baf545345030db6f99b858006'),
    'bns-bound {bs12} --rep trivial --valuation Z': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'bns-bound {bs12} --rep trivial --valuation trivial': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'bns-bound {bs12} --rep trivial --valuation p-adic:3': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'bns-bound {bs12} --rep trivial --valuation fp:2': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'bns-bound {bs12} --rep trivial --valuation fp:3': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'alexander {torus} --rep trivial': (0, '4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865'),
    'trop {torus} --rep trivial --valuation Z': (0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'trop {torus} --rep trivial --valuation trivial': (0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'trop {torus} --rep trivial --valuation p-adic:2': (0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'trop {torus} --rep trivial --valuation p-adic:3': (0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'trop {torus} --rep trivial --valuation fp:2': (0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'trop {torus} --rep trivial --valuation fp:3': (0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'kaehler-test {torus} --rep trivial --fields q,fp:2,fp:3': (0, '2d19d13b44770e1257c4d02037452fc26a913cf6a3d6c97c08574c835cd02f8e'),
    'bns-bound {torus} --rep trivial --valuation Z': (0, 'afa6a686ee0461f77cb514f53ef63bbdb1f5906c6a79518c26f92da4ff43866b'),
    'bns-bound {torus} --rep trivial --valuation trivial': (0, 'a9b41e489901330e4b89b87ad5640a900240f9868bd312e61f10e5a1fa39ebc0'),
    'bns-bound {torus} --rep trivial --valuation p-adic:3': (0, '2bdb72b971e6af9a1b76fe73852b3937bfd26e280b964dd04f7e42b8c43787d7'),
    'bns-bound {torus} --rep trivial --valuation fp:2': (0, '04fafe4026e2cf8f9e13822e71d55932a137f248f828dc56cb0bb13ace171146'),
    'bns-bound {torus} --rep trivial --valuation fp:3': (0, '486abc907c8f2c9db11bbab45422a49ae21ed52413cffe90f4a2e956de725eb7'),
    'alexander {col1} --rep trivial': (0, 'c851b9d3f8ca4912e9f8798247e1b74d97ed0fa5d96f98b9707241f43322b21c'),
    'trop {col1} --rep trivial --valuation Z': (0, '274e4456ef4b2ee58d572238e272e050f830ccc150ad51308442594e322f2b22'),
    'trop {col1} --rep trivial --valuation trivial': (0, '20d181a445bfd7f3fd068d5d5251abe4897cc20b8834e138b034c91e92c5618b'),
    'trop {col1} --rep trivial --valuation p-adic:2': (0, '77697fc8d52d8f43dbe514dd1346a929bc6ab7c610b75019b4359e00e5a3b8c8'),
    'trop {col1} --rep trivial --valuation p-adic:3': (0, '20d181a445bfd7f3fd068d5d5251abe4897cc20b8834e138b034c91e92c5618b'),
    'trop {col1} --rep trivial --valuation fp:2': (0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'trop {col1} --rep trivial --valuation fp:3': (0, '20d181a445bfd7f3fd068d5d5251abe4897cc20b8834e138b034c91e92c5618b'),
    'kaehler-test {col1} --rep trivial --fields q,fp:2,fp:3': (0, 'c055f53c78508d7eadb1dfdcdc9e97eb17b78e15a1fb616ef6aa52db4a627bee'),
    'bns-bound {col1} --rep trivial --valuation Z': (0, 'd331faa8c332d65b1d656dba1317fd706add52661073ae597708158ca83b1550'),
    'bns-bound {col1} --rep trivial --valuation trivial': (0, '3daf2c1783da66804708973fea83fa092e9a5c4a8fec4ce375962828923703d0'),
    'bns-bound {col1} --rep trivial --valuation p-adic:3': (0, 'a53eb454084aa15f36e423b35f4b8c5eb55dce550ce39af73f369c41054258e5'),
    'bns-bound {col1} --rep trivial --valuation fp:2': (0, 'a69e66a8fa38a9357139fb6a87edc91190280ca153838e76db2ba2876df21ad3'),
    'bns-bound {col1} --rep trivial --valuation fp:3': (0, 'b1d6fc39cee5876f9deead9eff4b87ef9427a09e04a9917867616af90860d1dd'),
    'alexander {col2} --rep trivial': (0, '8363c7d139281f7c26fbfca36a9942c5c89dd0167adbf3aab8064f5cec37fa13'),
    'trop {col2} --rep trivial --valuation Z': (0, 'd8afa96b974a4dbcd95d3e340a6c4759267887ab14b0671a97f4948f5b42937d'),
    'trop {col2} --rep trivial --valuation trivial': (0, 'd8afa96b974a4dbcd95d3e340a6c4759267887ab14b0671a97f4948f5b42937d'),
    'trop {col2} --rep trivial --valuation p-adic:2': (0, 'd8afa96b974a4dbcd95d3e340a6c4759267887ab14b0671a97f4948f5b42937d'),
    'trop {col2} --rep trivial --valuation p-adic:3': (0, 'd8afa96b974a4dbcd95d3e340a6c4759267887ab14b0671a97f4948f5b42937d'),
    'trop {col2} --rep trivial --valuation fp:2': (0, 'd8afa96b974a4dbcd95d3e340a6c4759267887ab14b0671a97f4948f5b42937d'),
    'trop {col2} --rep trivial --valuation fp:3': (0, 'd8afa96b974a4dbcd95d3e340a6c4759267887ab14b0671a97f4948f5b42937d'),
    'kaehler-test {col2} --rep trivial --fields q,fp:2,fp:3': (0, '67b198d8e224037d6b5d58e489d48c21aa9a2df25ad5078b4c0a65d3b3582918'),
    'bns-bound {col2} --rep trivial --valuation Z': (0, '8708599d010d78923a607a1af7feb203c1f2b3c2adc4ac0cca810b0566bccf10'),
    'bns-bound {col2} --rep trivial --valuation trivial': (0, '2e17034f1dfb898b25285e250830eade10f7c18c327e94ba344c16bf8293855f'),
    'bns-bound {col2} --rep trivial --valuation p-adic:3': (0, '849bb447aa7aff732dc98e67ac5dc17fe2225afa0be82de2eb3409177265fcf8'),
    'bns-bound {col2} --rep trivial --valuation fp:2': (0, '3a07f08ca46fea44cc54d090c132ec6ba646d74047584e66bfb1ca00917548b4'),
    'bns-bound {col2} --rep trivial --valuation fp:3': (0, 'f27e5070cbd9a71390a69de29baab2bc45aa9a985530b985a996f1f9b3f8c69f'),
    'bns-bound {one_relator} --rep s3 --rep trivial --valuation Z --valuation p-adic:3 --valuation fp:2 --valuation trivial': (0, 'ab48d35e1c573d07ffa0c7c6c42df7143d16a1ac2e09d757d9e1f28df42eab74'),
    'bns-bound {one_relator} --rep s3 --rep trivial --valuation Z --valuation p-adic:3 --valuation fp:2 --valuation trivial --fixture brown_one_relator': (0, 'c78f8a4a48ed30e3705def1f17cc55d2724c9091d3777c75a293205c70d4c75c'),
    'bns-bound {one_relator} --rep s3 --rep trivial --valuation Z --valuation p-adic:3 --valuation fp:2 --valuation trivial --check-finite-image': (0, 'b94a8fcc656e22683a879cfc4aea2400b44acff18cedf0913d98f50779a089bc'),
}


def test_cli_golden_table(tmp_path):
    paths = documents(tmp_path)
    assert sorted(TABLE) == sorted(commands())
    changed, leaks = [], []
    for command in commands():
        rc, digest, err = outcome(command, paths)
        if (rc, digest) != TABLE[command]:
            changed.append(f"{command}: {rc}, {digest}")
        if "oracle" in err or "Traceback" in err:
            leaks.append(f"{command}: {err}")
    assert changed == []
    assert leaks == []


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as folder:
        paths = documents(folder)
        for command in commands():
            rc, digest, _ = outcome(command, paths)
            print(f"    {command!r}: ({rc}, {digest!r}),")
