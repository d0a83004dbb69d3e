"""End-to-end glue: plan -> synthesized frames -> wire bytes -> Session.

This is the same path a live capture takes (encode then decode), so
anything asserted on these sessions holds for the transport pipeline too.
"""

from gripstream.core import Calibration, GloveConfig, Side
from gripstream.ingest import Session, SessionBuilder
from gripstream.simulate import SessionPlan, emit_frames, encode_session, synthesize_session


def capture_plan(
    plan: SessionPlan,
    cal: Calibration | None = None,
    cfg: GloveConfig | None = None,
) -> dict[Side, bytes]:
    """Wire bytes per glove for a session plan, as a raw capture would hold them."""
    cal = cal or Calibration()
    cfg = cfg or GloveConfig()
    return {
        side: encode_session(emit_frames(traj, cal, cfg, side=side))
        for side, traj in synthesize_session(plan, cal, cfg).items()
    }


def session_from_capture(
    blob: bytes,
    dominant: Side,
    subject: str = "anon",
    condition: str = "quiet",
    started_at: str = "",
    cfg: GloveConfig | None = None,
) -> Session:
    """Decode one glove's capture into a Session labelled with its hand."""
    builder = SessionBuilder(
        subject=subject,
        condition=condition,
        dominant_side=dominant,
        started_at=started_at,
        sample_period_ms=(cfg or GloveConfig()).sample_period_ms,
    )
    builder.feed(blob)
    return builder.session()


def run_plan(
    plan: SessionPlan,
    subject: str = "anon",
    condition: str = "quiet",
    cal: Calibration | None = None,
    cfg: GloveConfig | None = None,
    started_at: str = "",
) -> dict[Side, Session]:
    """Execute a session plan through the full codec round trip."""
    return {
        side: session_from_capture(blob, plan.dominant, subject, condition, started_at, cfg)
        for side, blob in capture_plan(plan, cal, cfg).items()
    }
