"""Read and rewrite the fields of a container file by hand, as a damaged
file or one of an older layout holds them."""

import numpy as np


def read_fields(path) -> dict:
    """Every field of the file, ``kind`` included."""
    with np.load(path, allow_pickle=False) as z:
        return {name: z[name] for name in z.files}


def edit(path, changes: dict):
    """Rewrite the file with each field of ``changes`` set to its value, or
    dropped where the value is None."""
    f = read_fields(path)
    for name, value in changes.items():
        if value is None:
            del f[name]
        else:
            f[name] = value
    with open(path, "wb") as fh:
        np.savez(fh, **f)
