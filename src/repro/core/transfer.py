"""Traffic-to-traffic translation by latent arithmetic (§4 task 3).

§4: "using a training set comprised of VPN traffic and non-VPN traffic
for Netflix, alongside non-VPN traffic for YouTube, we could generate a
predictive output of VPN traffic for YouTube".

With a linear latent codec this is the classic attribute-vector
construction: the *condition direction* is the difference of latent means
between a condition pair observed for one application,

    d = mean(z[netflix-vpn]) - mean(z[netflix]),

and translation applies that direction to flows of another application,

    z[youtube-vpn*] = z[youtube] + d,

then decodes through the shared back-transform.  The same mechanism
covers §4's *network condition transfer* (task 2): a direction computed
between low-latency and high-latency captures shifts the timing channel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.pipeline import TextToTrafficPipeline
from repro.core.postprocess import matrix_to_flow
from repro.net.flow import Flow


@dataclass
class ConditionDirection:
    """A latent direction between two observed conditions."""

    vector: np.ndarray
    source_condition: str
    target_condition: str
    support: int  # number of flow pairs behind the estimate

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.vector))


class TrafficTranslator:
    """Condition transfer / traffic-to-traffic translation over a codec.

    Works with any fitted pipeline: only the latent codec is required,
    so translation is deterministic and cheap (no sampling).
    """

    def __init__(self, pipeline: TextToTrafficPipeline):
        if not pipeline.codec.is_fitted:
            raise ValueError("pipeline codec must be fitted")
        self.pipeline = pipeline

    # -- encoding helpers ------------------------------------------------
    def _encode(self, flows: list[Flow]) -> np.ndarray:
        _, vectors = self.pipeline._encode(flows)
        return self.pipeline.codec.encode(vectors)

    # -- direction estimation -----------------------------------------------
    def condition_direction(
        self,
        source_flows: list[Flow],
        target_flows: list[Flow],
        source_condition: str = "source",
        target_condition: str = "target",
    ) -> ConditionDirection:
        """Estimate the latent direction source-condition -> target-condition.

        The two sets should hold the *same application* under the two
        conditions (e.g. netflix and netflix-vpn); the mean difference
        then isolates the condition, not the application.
        """
        if not source_flows or not target_flows:
            raise ValueError("both flow sets must be non-empty")
        z_source = self._encode(source_flows)
        z_target = self._encode(target_flows)
        return ConditionDirection(
            vector=z_target.mean(axis=0) - z_source.mean(axis=0),
            source_condition=source_condition,
            target_condition=target_condition,
            support=min(len(source_flows), len(target_flows)),
        )

    # -- translation ----------------------------------------------------------
    def translate(
        self,
        flows: list[Flow],
        direction: ConditionDirection,
        strength: float = 1.0,
        label_suffix: str | None = None,
    ) -> list[Flow]:
        """Apply a condition direction to flows and decode back to packets.

        ``strength`` scales the direction (1.0 = the estimated shift);
        the returned flows carry ``<label><label_suffix>`` labels, with
        the suffix defaulting to ``-<target_condition>``.
        """
        if not flows:
            return []
        suffix = (label_suffix if label_suffix is not None
                  else f"-{direction.target_condition}")
        z = self._encode(flows) + strength * direction.vector
        vectors = self.pipeline.codec.decode(z)
        continuous, gap_channels = self.pipeline._devectorize(vectors)
        return [
            matrix_to_flow(
                continuous[i],
                gaps_channel=gap_channels[i],
                label=flow.label + suffix,
                start_time=flow.start_time,
            )
            for i, flow in enumerate(flows)
        ]
