"""Strategy registry: the solvers' one reference (keeps REP206 quiet)."""

from .solvers import solve_chain, solve_chain_batch


class StrategyInfo:
    def __init__(self, name: str, func=None, batch_func=None) -> None:
        self.name = name
        self.func = func
        self.batch_func = batch_func


STRATEGIES: dict[str, StrategyInfo] = {
    "chain": StrategyInfo("chain", func=solve_chain, batch_func=solve_chain_batch),
}
