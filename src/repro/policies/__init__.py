"""Policy engine: reputation score → puzzle difficulty mappings.

The paper's three evaluated policies are exposed as factories mirroring
its §III naming, alongside the generalised/extension policies and the
declarative spec DSL:

>>> import random
>>> from repro.policies import policy_1, policy_2, policy_3
>>> rng = random.Random(0)
>>> [policy_1().difficulty_for(s, rng) for s in range(3)]
[1, 2, 3]
>>> [policy_2().difficulty_for(s, rng) for s in range(3)]
[5, 6, 7]
"""

from repro.core.registry import Registry
from repro.policies.adaptive import LoadAdaptivePolicy
from repro.policies.base import SCORE_DOMAIN, BasePolicy
from repro.policies.composite import (
    ClampPolicy,
    MaxOfPolicy,
    MinOfPolicy,
    OffsetPolicy,
)
from repro.policies.dsl import (
    build_policy,
    dump_policy_json,
    load_policy_json,
    policy_to_spec,
)
from repro.policies.error_range import ErrorRangePolicy, policy_3
from repro.policies.exponential import ExponentialPolicy
from repro.policies.fractional import FractionalLinearPolicy
from repro.policies.linear import LinearPolicy, policy_1, policy_2
from repro.policies.stepwise import StepwisePolicy
from repro.policies.table import FixedPolicy, TablePolicy

__all__ = [
    "BasePolicy",
    "SCORE_DOMAIN",
    "LinearPolicy",
    "ErrorRangePolicy",
    "StepwisePolicy",
    "ExponentialPolicy",
    "FractionalLinearPolicy",
    "TablePolicy",
    "FixedPolicy",
    "LoadAdaptivePolicy",
    "MaxOfPolicy",
    "MinOfPolicy",
    "ClampPolicy",
    "OffsetPolicy",
    "policy_1",
    "policy_2",
    "policy_3",
    "build_policy",
    "policy_to_spec",
    "load_policy_json",
    "dump_policy_json",
    "POLICY_REGISTRY",
    "paper_policies",
]

#: Registry of the paper's named policies plus general factories.
POLICY_REGISTRY: Registry = Registry("policy")
POLICY_REGISTRY.register("policy-1", policy_1)
POLICY_REGISTRY.register("policy-2", policy_2)
POLICY_REGISTRY.register("policy-3", policy_3)
POLICY_REGISTRY.register("linear", LinearPolicy)
POLICY_REGISTRY.register("error-range", ErrorRangePolicy)
POLICY_REGISTRY.register("stepwise", StepwisePolicy)
POLICY_REGISTRY.register("exponential", ExponentialPolicy)
POLICY_REGISTRY.register("table", TablePolicy)
POLICY_REGISTRY.register("fixed", FixedPolicy)
# Registry spelling of the load-adaptive surcharge over the paper's
# policy-2, so declarative recipes (FrameworkSpec) can request it.
POLICY_REGISTRY.register(
    "adaptive-2", lambda: LoadAdaptivePolicy(inner=policy_2())
)


def paper_policies(epsilon: float = 2.5) -> tuple[
    LinearPolicy, LinearPolicy, ErrorRangePolicy
]:
    """The three policies evaluated in the paper's Figure 2, in order."""
    return policy_1(), policy_2(), policy_3(epsilon)
