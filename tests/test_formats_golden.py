"""Frozen bytes of the files the command line writes.

One SHA-256 per file pins each format bit for bit: the PGM and PPM headers
and rasters, config files, Golay and lattice dumps, and the annulus and
staircase witness texts.  Each case also pins its stdout and the exact set
of files it writes besides manifest.txt; MANIFESTS pins the manifests of
the Monte Carlo commands.  The digests were recorded from the implementation
before the writers of these formats were merged, so a rewrite of any writer
cannot move a byte.
"""

import hashlib

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


def _digests(argv, out_dir, capsys) -> dict[str, str]:
    capsys.readouterr()
    assert main([*argv, "--out", str(out_dir)]) == 0
    digests = {"stdout": hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()}
    for path in sorted(out_dir.iterdir()):
        if path.name != "manifest.txt":
            digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


@pytest.mark.parametrize("case", list(CASES))
def test_format_digests(case, tmp_path, capsys):
    argv, expected = CASES[case]
    assert _digests(argv, tmp_path, capsys) == expected


@pytest.mark.parametrize("case", list(MANIFESTS))
def test_manifest_digests(case, tmp_path, capsys):
    argv, expected = MANIFESTS[case]
    assert main([*argv, "--out", str(tmp_path)]) == 0
    assert hashlib.sha256((tmp_path / "manifest.txt").read_bytes()).hexdigest() == expected
