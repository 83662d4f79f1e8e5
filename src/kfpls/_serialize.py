"""Deterministic on-disk array archives.

`numpy.savez` stamps zip members with the current time, so two identical
saves differ at the byte level. Model files and run artifacts here must be
byte-reproducible for equal inputs, so members are written with a fixed
timestamp instead. The result is still a plain zip of ``.npy`` members
that ``numpy.load`` understands, and float payloads round-trip bit-exact.
An archive is written to a temporary file beside its target and then
renamed over it, so readers never see a partly written archive.
"""

from __future__ import annotations

import io
import os
import zipfile

import numpy as np

_FIXED_DATE = (1980, 1, 1, 0, 0, 0)


def write_array_archive(path, arrays: dict) -> None:
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    zf = zipfile.ZipFile(tmp, "x", compression=zipfile.ZIP_STORED)
    try:
        with zf:
            for name in sorted(arrays):
                buf = io.BytesIO()
                np.lib.format.write_array(buf, np.asarray(arrays[name]))
                info = zipfile.ZipInfo(name + ".npy", date_time=_FIXED_DATE)
                zf.writestr(info, buf.getvalue())
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


class _Members(dict):
    """Archive members by name; a member the archive lacks is a ``ValueError``."""

    def __missing__(self, key):
        raise ValueError(f"archive has no member {key!r}")


def read_array_archive(path) -> dict:
    """All members of an archive. ``OSError`` if the file cannot be read,
    ``ValueError`` if it is not an archive of arrays, and ``ValueError``
    when a member it lacks is looked up."""
    try:
        data = np.load(path, allow_pickle=False)
        if not isinstance(data, np.lib.npyio.NpzFile):
            raise ValueError("not an archive of arrays")
        with data:
            return _Members((key, data[key]) for key in data.files)
    except (zipfile.BadZipFile, EOFError) as exc:
        raise ValueError(f"not an archive of arrays: {exc}") from exc
