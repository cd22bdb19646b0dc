"""The distillation engine.

Compresses a multi-step teacher into a few-step cascaded generator by
matching distributions in the teacher's (high-resolution) space:

1. draw one (stage, sigma) pair per batch, warm-up gated to the
   high-noise stages, and select the schedule step nearest it,
2. run the generator's own cascade up to the selected step, recording
   every state before it,
3. project the selected state to the final resolution with the cascade's
   own transition step, `step_forward` (denoise to a clean estimate,
   upsample, and re-noise with an alpha-mix of model-implied and fresh
   Gaussian noise), taken at the drawn teacher level and the training-time
   alpha,
4. update the fake score on a weighted denoising objective toward the
   projected clean estimate, then update the generator on the
   pseudo-Huber score-difference objective, with gradients flowing
   through the projection and the recorded cascade. Every step of that
   chain, the projection included, is differentiated by `step_vjp`.

The B samples of a step share the draw, so their cascades, projections,
losses and chain backward all run as (B, C, H, W) batches; each sample
still draws its noise from its own stream. All gradients are exact; the
whole chain is validated against finite differences in the test suite.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from . import net as nets
from .cascade import CascadeRun, InferenceTrace, StepTape, run_cascade, schedule_trace, step_forward, step_vjp
from .diffusion import TeacherModel, abort_if_bad, training_loop
from .grid import SeededRng
from .schedule import TrajectoryPartition, build_partition, sigma_to_logsnr

PHASE_WARMUP = "warmup"
PHASE_FULL = "full"


@dataclass(frozen=True)
class DistillConfig:
    """Hyperparameters of one distillation run; the defaults are toy-default's.

    The stage split sits at sigma = 0.502, so a 4-step run divides 2 + 2.
    ``alpha`` is the training-time noise-mix weight of the projection;
    ``alpha_inference`` drives transitions of the generated cascades and
    of later sampling. `rm_disabled_config` derives the ablation arm.

    ``snr_clamp`` bounds the fake objective's per-draw weight
    ``((1 - sigma) / sigma)^2`` at the shifted stage sigma. It is kept
    narrow because AdamW runs with beta1 = 0 and keeps one second moment
    shared by every stage, so the most heavily weighted draws set the step
    size. With a wide clamp such as (1e-4, 1e4) the fake gradients on the
    high-noise, low-resolution stage are ~40x smaller than on the final
    stage; the fake score stops tracking the generator there and the
    generator's fake-vs-teacher gap runs away.
    """

    thresholds: tuple[float, ...] = (sigma_to_logsnr(0.502),)
    resolutions: tuple[int, ...] = (8, 16)
    flow_shift: float = 1.0
    n_steps: int = 4
    alpha: float = 0.2
    alpha_inference: float = 1.0
    snr_clamp: tuple[float, float] = (0.05, 20.0)
    warmup_steps: int = 80
    steps: int = 500
    batch_size: int = 12
    lr_generator: float = 5e-5
    lr_fake: float = 5e-4
    lr_final_fraction: float = 0.05  # linear decay floor; 1.0 = constant
    clip_norm: float = 1.0
    pseudo_huber_scale: float = 0.00054

    def validate(self) -> None:
        for key in ("alpha", "alpha_inference"):
            if not 0.0 <= getattr(self, key) <= 1.0:
                raise ValueError(f"distill.{key} must lie in [0, 1], got {getattr(self, key)}")
        for key, least in (("warmup_steps", 0), ("steps", 0), ("batch_size", 1)):
            if getattr(self, key) < least:
                raise ValueError(f"distill.{key} must be at least {least}, got {getattr(self, key)}")
        for key in ("lr_generator", "lr_fake", "clip_norm", "pseudo_huber_scale"):
            if not 0.0 < getattr(self, key) < np.inf:
                raise ValueError(f"distill.{key} must be positive and finite, got {getattr(self, key)}")
        if not 0.0 < self.lr_final_fraction <= 1.0:
            raise ValueError("distill.lr_final_fraction must lie in (0, 1]")
        if len(self.snr_clamp) != 2 or not 0.0 < self.snr_clamp[0] <= self.snr_clamp[1] < np.inf:
            raise ValueError(f"distill.snr_clamp must be (lo, hi) with 0 < lo <= hi < inf, got {self.snr_clamp}")

    def lr_scale(self, step: int) -> float:
        """Linear decay from 1 at step 0 to lr_final_fraction at the last step.

        Applied to the generator only; the fake score keeps its full rate
        so its tracking of the (slowing) generator tightens over training.
        """
        if self.steps <= 1:
            return 1.0
        frac = min(step / (self.steps - 1), 1.0)
        return 1.0 - (1.0 - self.lr_final_fraction) * frac

    def partition(self) -> TrajectoryPartition:
        return build_partition(list(self.thresholds), list(self.resolutions), self.flow_shift)


@dataclass
class DistillState:
    generator: nets.DenoiserNet
    fake: nets.DenoiserNet
    opt_generator: nets.AdamW
    opt_fake: nets.AdamW
    step: int


def init_distill_state(teacher: TeacherModel, config: DistillConfig) -> DistillState:
    """Generator and fake score both start as copies of the teacher."""
    return DistillState(
        generator=teacher.net.with_params(teacher.net.params),
        fake=teacher.net.with_params(teacher.net.params),
        opt_generator=nets.AdamW(lr=config.lr_generator, clip_norm=config.clip_norm),
        opt_fake=nets.AdamW(lr=config.lr_fake, clip_norm=config.clip_norm),
        step=0,
    )


def pseudo_huber(residual: np.ndarray, c: float) -> tuple[float, np.ndarray]:
    """sqrt(||r||^2 + c^2) - c and its gradient in r.

    Quadratic ~ ||r||^2 / 2c for small residuals, slope-1 linear for large.
    """
    if c <= 0:
        raise ValueError("pseudo-Huber constant must be positive")
    root = float(np.sqrt(np.sum(residual * residual) + c * c))
    return root - c, residual / root


def pseudo_huber_constant(d: int, scale: float = DistillConfig.pseudo_huber_scale) -> float:
    """The dimension rule c = scale * sqrt(d), d = number of entries."""
    return scale * float(np.sqrt(d))


def snr_weight(sigma_stage: float, clamp: tuple[float, float]) -> float:
    """((1 - sigma) / sigma)^2 clamped; diverges at sigma -> 0, hence the clamp."""
    lo, hi = clamp
    if sigma_stage <= 0.0:
        return hi
    if sigma_stage >= 1.0:
        return lo
    raw = ((1.0 - sigma_stage) / sigma_stage) ** 2
    return float(np.clip(raw, lo, hi))


def warmup_stage_count(num_stages: int) -> int:
    # floor(K / 2) high-noise stages, but never fewer than one
    return max(1, num_stages // 2)


def sample_stage_and_sigma(
    partition: TrajectoryPartition,
    phase: str,
    rng: SeededRng,
) -> tuple[int, float, float]:
    """One Monte-Carlo (stage, sigma) draw.

    During warm-up only the first floor(K/2) (high-noise, low-resolution)
    stages are eligible. The stage sigma is uniform on the stage's shifted
    interval; the teacher-space sigma comes back through the shift
    inverse. Returns (stage index, sigma_stage, sigma_target).
    """
    k = partition.num_stages
    limit = warmup_stage_count(k) if phase == PHASE_WARMUP else k
    stage = partition.stages[rng.choice_index(np.ones(limit))]
    lo, hi = stage.shifted_interval
    sigma_stage = float(rng.uniform(lo, hi))
    return stage.index, sigma_stage, stage.unshift(sigma_stage)


def generate_cascade_states(
    generator: nets.DenoiserNet,
    class_ids: Sequence[int | None],
    trace: InferenceTrace,
    seeds: Sequence[int],
    alpha_inference: float = 1.0,
    stop: int | None = None,
) -> CascadeRun:
    """Run the generator's own cascades along `trace`, one per (class id,
    seed), in lock-step, recording every pre-step state; with `stop`, only
    up to the states entering that step (`run.final`)."""
    return run_cascade(generator, trace, alpha_inference, class_ids, seeds, keep_tape=True, stop=stop)


def select_state_index(run: CascadeRun, stage: int, sigma_stage: float) -> int:
    """The step of `stage` whose state is nearest the sampled shifted
    sigma. Reads only the trace, so a plan serves as well as a run.

    Ties resolve toward the earlier (noisier) step.
    """
    best, best_dist = None, None
    for j, record in enumerate(run.trace.records):
        if record.stage != stage:
            continue
        dist = abs(record.shifted_sigma - sigma_stage)
        if best is None or dist < best_dist:
            best, best_dist = j, dist
    if best is None:
        raise ValueError(f"no recorded state for stage {stage}")
    return best


def upsample_transform(
    generator: nets.DenoiserNet,
    x: np.ndarray,
    sigma_state: float,
    class_ids: Sequence[int | None],
    sigma_target: float,
    alpha: float,
    final_res: int,
    rngs: Sequence[SeededRng],
) -> tuple[StepTape, np.ndarray, np.ndarray]:
    """Project a batch of cascade states into the teacher space at
    sigma_target: the cascade transition to final_res with sigma_next =
    sigma_target, image i's fresh noise drawn from rngs[i]. Returns the
    step's tape, U(x0_hat) (the fake score's clean targets) and x_high.
    Differentiable end to end via `backward_transform`."""
    tape = StepTape(x, sigma_state, sigma_target, alpha)
    x_high, clean_up = step_forward(generator, tape, class_ids, final_res, rngs)
    return tape, clean_up, x_high


def backward_transform(
    generator: nets.DenoiserNet,
    tape: StepTape,
    class_ids: Sequence[int | None],
    d_x_high: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of the projection: returns (param grads, grad at x_in)."""
    return step_vjp(generator, tape, class_ids, d_x_high)


def cascade_chain_backward(
    generator: nets.DenoiserNet,
    run: CascadeRun,
    sel_index: int,
    class_ids: Sequence[int | None],
    d_state: np.ndarray,
) -> np.ndarray:
    """Backpropagate a gradient at the selected recorded states through the
    cascade steps that produced them (steps sel_index-1 down to 0)."""
    grads = np.zeros_like(generator.params)
    d = d_state
    for j in reversed(range(sel_index)):
        gp, d = step_vjp(generator, run.tape[j], class_ids, d)
        grads += gp
    return grads


def generator_loss(
    x_high: np.ndarray,
    sigma_target: float,
    fake: nets.DenoiserNet,
    teacher: nets.DenoiserNet,
    class_ids: Sequence[int | None],
    huber_scale: float = DistillConfig.pseudo_huber_scale,
) -> tuple[float, np.ndarray]:
    """Pseudo-Huber distance to the stop-gradient score-difference target,
    averaged over the images of the batch x_high.

    The score surrogate is the denoising displacement, so the difference
    of fake and teacher scores reduces to the difference of their clean
    estimates at (x_high, sigma). The frozen target is
    y = sg(x_high + x0_teacher - x0_fake): descending the loss moves the
    sample along the teacher's denoising direction relative to the fake's,
    which realizes the reverse-KL score-difference gradient. Only x_high
    carries gradient; the returned upstream is d loss / d x_high. The
    pseudo-Huber constant follows the size of one image.
    """
    v_fake = nets.forward(fake, x_high, sigma_target, class_ids)
    v_teacher = nets.forward(teacher, x_high, sigma_target, class_ids)
    x0_fake = x_high - sigma_target * v_fake
    x0_teacher = x_high - sigma_target * v_teacher
    residual = x0_fake - x0_teacher  # x_high - y
    c = pseudo_huber_constant(x_high[0].size, huber_scale)
    n = len(x_high)
    loss, d_residual = 0.0, np.empty_like(residual)
    for i in range(n):
        loss_i, d_residual[i] = pseudo_huber(residual[i], c)
        loss += loss_i
    return loss / n, d_residual / n


def fake_score_loss(
    fake: nets.DenoiserNet,
    x_high: np.ndarray,
    sigma_target: float,
    clean_target: np.ndarray,
    sigma_stage: float,
    class_ids: Sequence[int | None],
    snr_clamp: tuple[float, float] = DistillConfig.snr_clamp,
) -> tuple[float, np.ndarray]:
    """SNR-weighted denoising objective tying the fake score to the
    generator's own clean estimates, averaged over the batch; clean_target
    must already be detached from the generator. Returns the loss and its
    parameter gradient."""
    lam = snr_weight(sigma_stage, snr_clamp)
    scale = lam / x_high.size  # the mean over images of per-image means

    def loss_of(sl, v):
        residual = x_high[sl] - sigma_target * v - clean_target[sl]
        return scale * float(np.sum(residual * residual)), 2.0 * scale * residual * (-sigma_target)

    return nets.loss_and_grad(fake, x_high, sigma_target, class_ids, loss_of)


@dataclass
class TrainStepRecord:
    step: int
    phase: str
    stage: int
    teacher_sigma: float
    generator_loss: float
    fake_loss: float
    generator_grad_norm: float
    fake_grad_norm: float


def train_step(
    state: DistillState,
    teacher: nets.DenoiserNet,
    partition: TrajectoryPartition,
    config: DistillConfig,
    class_ids: list[int | None],
    rng: SeededRng,
) -> TrainStepRecord:
    """One full update: fake score first, then generator (shared draw)."""
    phase = PHASE_WARMUP if state.step < config.warmup_steps else PHASE_FULL
    state.opt_generator.lr = config.lr_generator * config.lr_scale(state.step)
    stage, sigma_stage, sigma_target = sample_stage_and_sigma(partition, phase, rng.derive(f"draw:{state.step}"))
    where = f"step {state.step} phase {phase} stage {stage}"
    final_res = partition.final_resolution

    # Every sample follows the same schedule, so the selected step is
    # chosen once from the plan, and each cascade runs only up to it.
    plan = CascadeRun(final=None, trace=schedule_trace(partition, config.n_steps))
    sel = select_state_index(plan, stage, sigma_stage)
    sigma_state = plan.trace.records[sel].shifted_sigma
    run = generate_cascade_states(
        state.generator, class_ids, plan.trace,
        [rng.derive(f"cascade:{state.step}:{i}").seed for i in range(len(class_ids))],
        config.alpha_inference, stop=sel,
    )
    tape, clean_up, x_high = upsample_transform(
        state.generator, run.final, sigma_state, class_ids,
        sigma_target, config.alpha, final_res,
        [rng.derive(f"transform:{state.step}:{i}") for i in range(len(class_ids))],
    )

    # fake score update (clean targets and states are detached values)
    fake_loss, fake_grads = fake_score_loss(
        state.fake, x_high, sigma_target, clean_up,
        sigma_stage, class_ids, config.snr_clamp,
    )
    abort_if_bad(fake_loss, "fake-score loss", where, x_high)
    state.fake.params, _ = state.opt_fake.step(state.fake.params, fake_grads)
    abort_if_bad(state.fake.params, "parameters after the fake score update", where, state.fake.params)

    # generator update against the just-updated fake score
    gen_loss, upstream = generator_loss(
        x_high, sigma_target, state.fake, teacher, class_ids, config.pseudo_huber_scale,
    )
    abort_if_bad(gen_loss, "generator loss", where, x_high)
    gen_grads, d_state = backward_transform(state.generator, tape, class_ids, upstream)
    gen_grads += cascade_chain_backward(state.generator, run, sel, class_ids, d_state)
    state.generator.params, _ = state.opt_generator.step(state.generator.params, gen_grads)
    abort_if_bad(state.generator.params, "parameters after the generator update", where, state.generator.params)

    record = TrainStepRecord(
        step=state.step,
        phase=phase,
        stage=stage,
        teacher_sigma=sigma_target,
        generator_loss=gen_loss,
        fake_loss=fake_loss,
        generator_grad_norm=float(np.linalg.norm(gen_grads)),
        fake_grad_norm=float(np.linalg.norm(fake_grads)),
    )
    state.step += 1
    return record


def train(
    teacher: TeacherModel,
    config: DistillConfig,
    rng: SeededRng,
    log_path=None,
) -> tuple[DistillState, list[TrainStepRecord]]:
    """Drive the full distillation run. Class ids are drawn from the
    teacher net's classes. With `log_path`, each step's record is a CSV
    row (`training_loop`)."""
    config.validate()
    n_classes = teacher.net.spec.class_count
    partition = config.partition()
    state = init_distill_state(teacher, config)

    def steps():
        batch_rng = rng.derive("batches")
        for _ in range(config.steps):
            if n_classes > 0:
                class_ids = [int(batch_rng.integers(0, n_classes)) for _ in range(config.batch_size)]
            else:
                class_ids = [None] * config.batch_size
            yield train_step(state, teacher.net, partition, config, class_ids, rng)

    return state, training_loop(TrainStepRecord, steps(), log_path)


def rm_disabled_config(config: DistillConfig) -> DistillConfig:
    """The ablation arm: identical budgets, no warm-up, and the K = 1
    partition, i.e. plain distribution matching at the final resolution."""
    return replace(config, thresholds=(), resolutions=config.resolutions[-1:], warmup_steps=0)
