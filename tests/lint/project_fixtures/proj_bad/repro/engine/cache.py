"""The engine-side cache that the seeded upward import reaches up to."""


class Cache:
    def __init__(self) -> None:
        self._data: dict[str, object] = {}

    def put(self, key: str, value: object) -> None:
        self._data[key] = value
