"""Seeded corruption of every file format: a reader refuses, never crashes.

Each fixture file is truncated at every offset (for files over 4 KB: every
offset in the first 600 bytes plus 400 seeded ones) and overwritten with
600 seeded 1-3-byte patches inside its first 600 bytes.  A reader may
return a value or raise ValueError (CaptureError is one); any other
exception is an escape.  A few refused files then go through the CLI,
which must exit 1 with one `error:` line.  Every format also meets each
fault of the shared header framing, and the message names the check.
"""

import numpy as np
import pytest

from csicount.capture import CaptureError, CsiCapture, read_capture, write_capture
from csicount.cli import main
from csicount.hmm import GaussianHmm, load_hmm, save_hmm
from csicount.neural import build_fcbp, load_network, save_network
from csicount.tensorfile import read_tensor, write_tensor

HEAD = 600  # bytes that hold every format's header and its first records
SAMPLED_CUTS = 400
OVERWRITES = 600


def _csic(path):
    rng = np.random.default_rng(0)
    values = (rng.standard_normal((15, 6, 30)) + 1j * rng.standard_normal((15, 6, 30)))
    write_capture(CsiCapture(values, np.arange(15) / 1500.0, label="walk"), path)


def _csit(path):
    write_tensor(np.arange(12.0).reshape(3, 4), path)


def _hmm(path):
    model = GaussianHmm(
        [0.4, 0.6], [[0.9, 0.1], [0.2, 0.8]], [[0.0, 1.0], [2.0, 3.0]], [[1.0, 0.5], [2.0, 1.0]],
        label="W",
    )
    save_hmm(model, path)


def _csnn(path):
    save_network(build_fcbp(seed=0), path)


FORMATS = {
    "csic": (_csic, read_capture),
    "csit": (_csit, read_tensor),
    "hmm": (_hmm, load_hmm),
    "csnn": (_csnn, load_network),
}


def corrupt_variants(raw: bytes, seed: int):
    """(description, bytes) of every truncation and seeded overwrite."""
    rng = np.random.default_rng(seed)
    cuts = range(len(raw))
    if len(raw) > 4096:
        cuts = [*range(HEAD), *sorted(rng.choice(np.arange(HEAD, len(raw)), SAMPLED_CUTS, False))]
    for cut in cuts:
        yield f"cut at {cut}", raw[:cut]
    for _ in range(OVERWRITES):
        n = int(rng.integers(1, 4))
        at = int(rng.integers(0, min(HEAD, len(raw)) - n + 1))
        patch = rng.integers(0, 256, n, dtype=np.uint8).tobytes()
        yield f"{patch.hex()} at {at}", raw[:at] + patch + raw[at + n :]


CLI = {
    "csic": lambda p, tmp: ["inject", "--in", str(p), "--out", str(tmp / "o.csic")],
    "csit": lambda p, tmp: ["features", "--in", str(p), "--out", str(tmp / "o.csit")],
    "hmm": lambda p, tmp: ["classify", "--models", str(p.parent), "--capture", "unread.csic"],
    "csnn": lambda p, tmp: ["eval", "--ckpt", str(p), "--data", "unread.json"],
}


@pytest.mark.parametrize("kind", sorted(FORMATS))
def test_corrupt_files_are_refused_with_value_error(kind, tmp_path, capsys):
    make, reader = FORMATS[kind]
    good = tmp_path / f"good.{kind}"
    make(good)
    reader(good)  # the intact file reads
    bad = tmp_path / "bad" / f"bad.{kind}"  # alone in its directory, for classify
    bad.parent.mkdir()
    refused, escapes = [], []
    for what, blob in corrupt_variants(good.read_bytes(), seed=0):
        bad.write_bytes(blob)
        try:
            reader(bad)
        except ValueError:
            refused.append((what, blob))
        except Exception as exc:  # an escape: name the file that caused it
            escapes.append(f"{what}: {type(exc).__name__}: {exc}")
        else:
            assert not what.startswith("cut"), what
    assert escapes == []
    # the CLI turns each refusal into one line: the empty file, a cut
    # header, the longest cut and the last three refused overwrites
    cuts = [(what, blob) for what, blob in refused if what.startswith("cut")]
    patched = refused[len(cuts) :]
    assert len(patched) >= 3
    for what, blob in [cuts[0], cuts[10], cuts[-1], *patched[-3:]]:
        bad.write_bytes(blob)
        assert main(CLI[kind](bad, tmp_path)) == 1, what
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1, (what, err)


FRAMING_FAULTS = {  # fault: (corrupt the intact file, text the refusal must hold)
    "cut_header": (lambda raw: raw[:5], "5 bytes, shorter than its"),
    "wrong_magic": (lambda raw: b"XXXX" + raw[4:], "magic b'XXXX'"),
    "next_version": (lambda raw: raw[:4] + (2).to_bytes(2, "little") + raw[6:], "version 2"),
}


@pytest.mark.parametrize("fault", sorted(FRAMING_FAULTS))
@pytest.mark.parametrize("kind", sorted(FORMATS))
def test_framing_faults_are_refused_by_name(kind, fault, tmp_path, capsys):
    make, reader = FORMATS[kind]
    corrupt, needle = FRAMING_FAULTS[fault]
    good = tmp_path / f"good.{kind}"
    make(good)
    assert good.read_bytes()[4:6] == (1).to_bytes(2, "little")  # every format is at version 1
    bad = tmp_path / "bad" / f"bad.{kind}"
    bad.parent.mkdir()
    bad.write_bytes(corrupt(good.read_bytes()))
    with pytest.raises(CaptureError if kind == "csic" else ValueError, match=needle):
        reader(bad)
    assert main(CLI[kind](bad, tmp_path)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and needle in err, err
    assert len(err.strip().splitlines()) == 1, err
