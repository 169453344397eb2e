"""Build, load and call the compiled search core, _core.c.

load builds the library with cc -O2 -shared -fPIC into __pycache__ next
to _core.c, or where that cannot be written into the user's own folder
bstar-<uid>, made with mode 0700 in the temporary directory, under a
name keyed by the CRC-32 and Adler-32 of the source (zlib is loaded
already; hashlib would load OpenSSL, 3.5 MiB of resident memory), and
loads it through ctypes.  A process finds the library built by an
earlier one; processes that build at once each compile to a temporary
name that os.replace moves in, so none loads a half-written file.  The
name is public, so load runs a library only where no other user could
have put it: the library and its folder belong to the user or to root
and are writable by neither group nor others.  search imports this
module at its first branch.
"""
from __future__ import annotations

import ctypes
import os
import signal
import tempfile
import threading
import zlib
from pathlib import Path
from typing import Optional

SOURCE = Path(__file__).with_name("_core.c")


class Core:
    """bstar_branch of one loaded library."""

    # bstar_branch's outcomes other than no witness (0) and Ctrl-C, which branch handles
    FOUND, OVER, STOPPED, UNFIT = 1, -1, -2, -4
    _INTERRUPTED = -3

    def __init__(self, lib: ctypes.CDLL):
        ints = ctypes.POINTER(ctypes.c_int)
        self._branch = lib.bstar_branch
        self._branch.argtypes = [ctypes.c_int] * 4 + [ints, ints, ctypes.c_int, ctypes.c_int,
                                                      ctypes.c_int64, ctypes.c_void_p,
                                                      ctypes.c_int64, ctypes.c_int, ints,
                                                      ctypes.POINTER(ctypes.c_int64)]
        self._branch.restype = ctypes.c_int

    def branch(self, kind, g, n, k, gap, cap, second, limit, canonical, stop, poll):
        """(status, witness tuple or None, nodes) of search._branch's branch; UNFIT
        where the branch lies past the core's widths, which _core.c checks,
        or past its C types.

        stop is the decision's stop flag, a ctypes byte that the core
        reads by its address at every refill of poll nodes, or None.  A
        call with none from the main thread ends at Ctrl-C within poll
        nodes and then runs the interpreter's SIGINT handler: the default
        one raises KeyboardInterrupt, and after one that returns the
        branch runs again from its start.
        """
        if g > _INT_MAX or n > _INT_MAX or limit > _INT64_MAX:  # ctypes would wrap them
            return self.UNFIT, None, 0
        ints = ctypes.c_int * k
        witness, nodes = ints(), ctypes.c_int64()
        args = (kind == "modular", g, n, k, ints(*gap), ints(*cap), second, canonical, limit,
                None if stop is None else ctypes.addressof(stop), poll,
                stop is None and threading.current_thread() is threading.main_thread(),
                witness, ctypes.byref(nodes))
        while (status := self._branch(*args)) == self._INTERRUPTED:
            signal.raise_signal(signal.SIGINT)
        return status, (tuple(witness) if status == self.FOUND else None), nodes.value


_INT_MAX, _INT64_MAX = (1 << 31) - 1, (1 << 63) - 1


def _private(path: Path) -> bool:
    """Whether path is the user's or root's and writable by no one else."""
    st = path.stat()
    return st.st_uid in (os.getuid(), 0) and not st.st_mode & 0o022


def build(folder: Path, name: str, source: bytes) -> Path:
    """Compile source into folder/name, mode 0755, through a temporary name; OSError
    where cc is missing or fails."""
    import subprocess  # a build is rare: most processes find the library built

    fd, tmp = tempfile.mkstemp(suffix=".so", dir=folder)
    os.close(fd)
    try:
        cc = subprocess.run(["cc", "-O2", "-shared", "-fPIC", "-x", "c", "-o", tmp, "-"],
                            input=source, capture_output=True)
        if cc.returncode:
            raise OSError(f"cc exited {cc.returncode}: {cc.stderr.decode(errors='replace')}")
        os.chmod(tmp, 0o755)
        os.replace(tmp, folder / name)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return folder / name


def load() -> Optional[Core]:
    """The core, built on first use; None where no library can be built or loaded."""
    if not hasattr(os, "getuid"):  # no POSIX owners to check, nor a POSIX cc
        return None
    source = SOURCE.read_bytes()
    name = f"_core-{zlib.crc32(source):08x}{zlib.adler32(source):08x}.so"
    for folder, mode in ((SOURCE.parent / "__pycache__", 0o777),
                         (Path(tempfile.gettempdir()) / f"bstar-{os.getuid()}", 0o700)):
        try:
            folder.mkdir(mode, exist_ok=True)
            if not _private(folder):
                continue
            lib = folder / name
            if not (lib.exists() and _private(lib)):
                build(folder, name, source)
            return Core(ctypes.CDLL(str(lib)))
        except OSError:
            continue
    return None
