"""Frozen bytes of the files the command line writes.

One SHA-256 per file pins each format bit for bit: the PGM and PPM headers
and rasters, config files, Golay and lattice dumps, the annulus and
staircase witness texts, and every `<command>.csv` table.  Each case also
pins its stdout, its stderr when it writes any, and the exact set of files it
writes besides manifest.txt; MANIFESTS pins the manifests of the Monte Carlo
commands, and HELP the --help text of every parser.  The digests were
recorded from the implementation before the writers of these formats were
merged, so a rewrite of any writer cannot move a byte.
"""

import hashlib
import sys

import pytest

from coprimelab.cli import main

WINDOW = ["--origin", "-5,3", "--extents", "40,24"]

# case -> (argv without --out, {file or "stdout": SHA-256})
CASES = {
    "sample-Z2": (
        ["sample", "--lattice", "Z2", "--P", "31", "--seed", "7", *WINDOW],
        {
            "stdout": "99eeeaecfef6eaf0b1f698c1b4eeded66fae03024336a69e15fe935960e7cd89",
            "colouring.pgm": "6e5426d29f58e28d09f45deaea0174bef8308e2468bc6a8e762906b91e978d3e",
            "config.txt": "568eba010df931f157de6b17c84fdc7e98d7b017845ac5501b1c3ba0ff25a99d",
        },
    ),
    "sample-triangular": (
        ["sample", "--lattice", "triangular", "--P", "31", "--seed", "7", *WINDOW],
        {
            "stdout": "99eeeaecfef6eaf0b1f698c1b4eeded66fae03024336a69e15fe935960e7cd89",
            "colouring.pgm": "a3a3230c8ac6efa99de6fb6aa10975087723d9d2904a405a2078e51131d45fa6",
            "config.txt": "7f5ca39b5deb1b7b15a7b7ef05c4a213015f408f917297aff9409f65869f3783",
        },
    ),
    "sample-oracle": (
        ["sample", "--oracle", "2,-3", *WINDOW],
        {
            "stdout": "ed9fa6c2e06987101e95189d686ff85763392594b3865a9942cb8dc47c2b2708",
            "colouring.pgm": "ed4a54c1dd00961a86d1ea47899aead7b8388bd0f68329d88a29f3dc7e43d363",
        },
    ),
    "layers": (
        ["layers", "--P", "13", "--seed", "2", "--origin", "-4,-4", "--extents", "24,16",
         "--primes", "2,3,5"],
        {
            "stdout": "d2d29c5f48271be10baef86d16aa64db7cdc3814d55dd980946d6c025ea42eec",
            "config.txt": "759ed889a9d5ef5451fac3024fe0fb6430ebd8e090b43d1c2d51dcc90f4db16e",
            "layers.ppm": "3a3f289b5ce8ad473066fd07dbbb4862700cbf692741bff4aedf5176208a5c50",
        },
    ),
    "golay-info": (
        ["golay"],
        {
            "stdout": "f817e1e8a096abd27f9a101b9b8d5d38256a068855a2f0d7c27e63b5b3160877",
            "golay.csv": "f817e1e8a096abd27f9a101b9b8d5d38256a068855a2f0d7c27e63b5b3160877",
        },
    ),
    "golay-generators": (
        ["golay", "--dump", "generators"],
        {
            "stdout": "886e93e86237b7068259abcd8d870c363770587ff36949bc7296f9217ac4e04d",
            "generators.txt": "886e93e86237b7068259abcd8d870c363770587ff36949bc7296f9217ac4e04d",
        },
    ),
    "golay-codewords": (
        ["golay", "--dump", "codewords"],
        {
            "stdout": "4e9e42a97c05e709fcccb3712d50936f88795fe1f31616dcb6ba3354c08ca36a",
            "codewords.txt": "4e9e42a97c05e709fcccb3712d50936f88795fe1f31616dcb6ba3354c08ca36a",
        },
    ),
    "golay-octads": (
        ["golay", "--dump", "octads"],
        {
            "stdout": "165b593bdd5cb310d2163cce76f40f3f66f71bbe7b2d81ac79e29bbb7d1c8065",
            "octads.txt": "165b593bdd5cb310d2163cce76f40f3f66f71bbe7b2d81ac79e29bbb7d1c8065",
        },
    ),
    "golay-dodecads": (
        ["golay", "--dump", "dodecads"],
        {
            "stdout": "6e403c9631810682d97fc6fe7ded48a7dd8b17db25e6d7746ab969365fda2ffa",
            "dodecads.txt": "6e403c9631810682d97fc6fe7ded48a7dd8b17db25e6d7746ab969365fda2ffa",
        },
    ),
    "lattice-info-D4": (
        ["lattice", "info", "--lattice", "D4"],
        {
            "stdout": "e79616ad458447f630e17e4aabf111906fd871528a3ec86ca7358dc7238ffe75",
            "lattice.csv": "e79616ad458447f630e17e4aabf111906fd871528a3ec86ca7358dc7238ffe75",
        },
    ),
    "lattice-dump-D4": (
        ["lattice", "dump", "--lattice", "D4"],
        {
            "stdout": "e6ac9911cdda26b81564d5cab5a290cc229e480a44e316032ea55b36223f2042",
            "vectors.txt": "e6ac9911cdda26b81564d5cab5a290cc229e480a44e316032ea55b36223f2042",
        },
    ),
    "lattice-info-E8": (
        ["lattice", "info", "--lattice", "E8"],
        {
            "stdout": "718c588e81005c5fead898bdac42a612ae4538b7ac28db4cc4f4bf4e4f6eb241",
            "lattice.csv": "718c588e81005c5fead898bdac42a612ae4538b7ac28db4cc4f4bf4e4f6eb241",
        },
    ),
    "lattice-dump-E8": (
        ["lattice", "dump", "--lattice", "E8"],
        {
            "stdout": "2901a6eedf6870fe2100f499c754750e7a2cb94cb41e2ed05571208c133a23da",
            "vectors.txt": "2901a6eedf6870fe2100f499c754750e7a2cb94cb41e2ed05571208c133a23da",
        },
    ),
    "annulus": (
        ["annulus", "--k", "6", "--trials", "50", "--P", "11", "--seed", "1"],
        {
            "stdout": "abed89a5b97a65071a02bd4c32e3b2fba77ca1642c6418160b427e83ca3b8213",
            "annulus.csv": "6546a0d023ae366b4b036bf4788a7c7b32b281e580448738eb8a42d9b99188ed",
            "witness.txt": "f7cfbe5ea4f11a5bf93a964eec5e36499f55e769d9ccf07d1e0cd7b7d6ba8150",
        },
    ),
    "staircase": (
        ["staircase", "--n-max", "2", "--trials", "50", "--P", "11", "--seed", "1"],
        {
            "stdout": "95e57f099438aca6f09b43a7da47f927877f41af0f179a3e42a2780bc3d72eb2",
            "staircase.csv": "dd7df27074322f0131c6c2003124e84ae79b87f4ad9da4b07ea1fceb0fe97a19",
            "witness.txt": "5df70714e76d023e53db038ff5431aa44e56f3568cd777ebf690f486d9b32195",
        },
    ),
    "spanning": (
        ["spanning", "--length", "20", "--trials", "50", "--P", "11", "--seed", "1"],
        {
            "stdout": "c2b082e4b690f400c23177867ee75809d6a36ce1f86c7c25e9bc2bb58a66176b",
            "spanning.csv": "c2b082e4b690f400c23177867ee75809d6a36ce1f86c7c25e9bc2bb58a66176b",
        },
    ),
    # the default cutoff P = 2x
    "crossing": (
        ["crossing", "--n", "6", "--x", "6", "--trials", "50", "--seed", "1"],
        {
            "stdout": "34abc1045bdb52de581268b764cafef4393c9525792160c8929654a2e28f7f9c",
            "crossing.csv": "34abc1045bdb52de581268b764cafef4393c9525792160c8929654a2e28f7f9c",
        },
    ),
    "bounds": (
        ["bounds", "--n", "4", "--x", "8"],
        {
            "stdout": "43b76d107ec91183de79c9a3b8eee3b25c86ffd862fdf346f725cdff2eaf326a",
            "bounds.csv": "43b76d107ec91183de79c9a3b8eee3b25c86ffd862fdf346f725cdff2eaf326a",
        },
    ),
    # P below x and r_upper >= 1: both notes on stderr
    "bounds-notes": (
        ["bounds", "--n", "8", "--x", "101", "--P", "50"],
        {
            "stdout": "7ed10712a9e231eb98acf301e55a5ba3baaae9ba5c86227ac805db6f53ced406",
            "stderr": "aabd2d40b4a77387dc8ff47cdbfc3dfeed0c3b0eb85460c05c09473522b03f1c",
            "bounds.csv": "7ed10712a9e231eb98acf301e55a5ba3baaae9ba5c86227ac805db6f53ced406",
        },
    ),
    "clusters": (
        ["clusters", "--P", "31", "--seed", "7", *WINDOW, "--adjacency", "triangular",
         "--colour", "black"],
        {
            "stdout": "99b2c40f5b64b48b7ae3f3c201de37312b39cb3674aaaab5e14599b2025cb5c8",
            "clusters.csv": "99b2c40f5b64b48b7ae3f3c201de37312b39cb3674aaaab5e14599b2025cb5c8",
        },
    ),
    # {pgm} is the colouring.pgm of sample-Z2, sampled with P=31
    "infer": (
        ["infer", "--pgm", "{pgm}", "--p-max", "7"],
        {
            "stdout": "ba992b09aa0ed7be5f595d8cc1adfab7bb4dccf0f5e4dfd8cb4acf4f39f8d5b2",
            "infer.txt": "ba992b09aa0ed7be5f595d8cc1adfab7bb4dccf0f5e4dfd8cb4acf4f39f8d5b2",
        },
    ),
    "infer-beyond-cutoff": (
        ["infer", "--pgm", "{pgm}", "--p-max", "37"],
        {
            "stdout": "354848b6d84e3834fc028e572383aaf54559d189b840a76738702984331c39ce",
            "infer.txt": "354848b6d84e3834fc028e572383aaf54559d189b840a76738702984331c39ce",
        },
    ),
}

# case -> (argv without --out, SHA-256 of manifest.txt); the crossing
# manifest also holds the cutoff P that crossing derives from --x
MANIFESTS = {
    "crossing": (["crossing", "--n", "6", "--x", "6", "--trials", "50", "--seed", "1"],
                 "a6af210a9a404072bb39bc5cda31a8ee37c4deb1216461f0e1a341513f75b7f6"),
    "annulus": (CASES["annulus"][0],
                "c0f2209a07443f4075106f0d478e7d028f739f1e01c0b4dfa99f580f6e0f0980"),
    "staircase": (CASES["staircase"][0],
                  "7fcd6bd5fcd85fa31733de8d5d124c5a6c4596a02bce65fb4ea6525e562078d4"),
    "spanning": (CASES["spanning"][0],
                 "8c656cef9b8f50664114979d0002d20f7233b56a4a907c14a791488c7de6c185"),
}


# parser -> SHA-256 of its --help text at 80 columns
HELP = {
    "coprimelab": "7ed8c9762bd0ec02160964b55d597ddf3dd1477b6c6282dd6cbb5eaddd0fffa6",
    "coprimelab sample": "c6ed40d5c31b3f3f70b662f44eb3174349003b6674473fa1dc3c1dd7bb80715d",
    "coprimelab layers": "ec59f2b703cc957538c33bdc39ecb87336cec11ce3206c0937219d357d401697",
    "coprimelab crossing": "a52e172ff54ad1c226e7291e2879e390a010fef76ab31afab4f983e347b6f8d6",
    "coprimelab bounds": "f1afdde92b8d1eb44526dacbb897969a9d34a186a05947a35f1ba4298b62fa17",
    "coprimelab annulus": "716b7ee95dbb40e2f436b3c7af5d5e8eb8f929a7c5175e931b42b444e271efcc",
    "coprimelab staircase": "bc757548a7b31a64b7e3fde61fbc791c4fb2e38f8f6f9b92e648308615e19d5f",
    "coprimelab spanning": "bb25020a5f01fb313bb4fe643194de06ec76329152ffc2ef3be8f55563c49a75",
    "coprimelab clusters": "f9c828f33de2bf8c32a78b55c07c48d6648b57b7f046f7f4b6b06090a08dbb1a",
    "coprimelab lattice": "647194fc7cf7ebd43f1df698add5bfc2334e38a12d745f27636e1df3bd93e20c",
    "coprimelab golay": "8f91a0034ab4fb7161038cadee7fa60029602957cf530fec33ba4bc948c231cd",
    "coprimelab check": "292b4b532938d19dabbbe82d32ffa511b11dc22a8d3494b40975dfdefc186130",
    "coprimelab infer": "267506ca1d7b5779ded842c0cd5754b47504b84546f00fd074c44c845ae8128f",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _digests(argv, out_dir, capsys) -> dict[str, str]:
    capsys.readouterr()
    assert main([*argv, "--out", str(out_dir)]) == 0
    captured = capsys.readouterr()
    digests = {"stdout": _sha256(captured.out.encode())}
    if captured.err:
        digests["stderr"] = _sha256(captured.err.encode())
    for path in sorted(out_dir.iterdir()):
        if path.name != "manifest.txt":
            digests[path.name] = _sha256(path.read_bytes())
    return digests


@pytest.fixture(scope="module")
def sample_pgm(tmp_path_factory):
    """The colouring.pgm of the sample-Z2 case, which the infer cases read."""
    out = tmp_path_factory.mktemp("sample")
    assert main([*CASES["sample-Z2"][0], "--out", str(out)]) == 0
    return str(out / "colouring.pgm")


@pytest.mark.parametrize("case", list(CASES))
def test_format_digests(case, tmp_path, capsys, sample_pgm):
    argv, expected = CASES[case]
    argv = [arg.replace("{pgm}", sample_pgm) for arg in argv]
    assert _digests(argv, tmp_path, capsys) == expected


# argparse lays help out differently from one Python release to the next
@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="help digests were recorded with Python 3.11's argparse")
@pytest.mark.parametrize("parser", list(HELP))
def test_help_digests(parser, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    capsys.readouterr()
    with pytest.raises(SystemExit) as stop:
        main([*parser.split()[1:], "--help"])
    assert stop.value.code == 0
    assert _sha256(capsys.readouterr().out.encode()) == HELP[parser]


@pytest.mark.parametrize("case", list(MANIFESTS))
def test_manifest_digests(case, tmp_path, capsys):
    argv, expected = MANIFESTS[case]
    assert main([*argv, "--out", str(tmp_path)]) == 0
    assert hashlib.sha256((tmp_path / "manifest.txt").read_bytes()).hexdigest() == expected
