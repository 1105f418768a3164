"""A plain cache: one thread per process, so no lock guards it."""


class Entry:
    """Referenced only through the string annotations below, which count."""


class _Cache:
    def __init__(self) -> None:
        self._data: dict[str, "Entry"] = {}

    def put(self, key: str, value: "Entry") -> None:
        self._data[key] = value

    def size(self) -> int:
        return len(self._data)
