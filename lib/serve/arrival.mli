(** Open-stream arrival-process generators.

    A serving run is driven by an arrival process: the virtual times at
    which inference requests hit the fleet. Three processes cover the
    deployment shapes of interest — a memoryless steady load (Poisson), a
    square-wave load alternating between a base and a burst rate (bursty),
    and a sinusoidally modulated load (diurnal, the day/night traffic
    curve compressed into a simulated period).

    {b Determinism.} Every process is generated by thinning a homogeneous
    Poisson process at the peak rate, and candidate [k]'s two random draws
    (its exponential gap and its acceptance coin) come from the indexed
    child streams [Rng.stream root (2k)] and [Rng.stream root (2k+1)] of a
    root seeded only by [seed]. No draw depends on how many random numbers
    any other candidate consumed, so the same [(process, seed)] always
    yields the same arrival sequence, independent of evaluation order,
    host domain count, or how far the simulation ran: {!times} over a
    longer duration extends the shorter run's sequence without disturbing
    it (pinned by the prefix-stability property test). *)

type process =
  | Poisson of { rate_rps : float }  (** Constant rate, requests/second. *)
  | Bursty of {
      base_rps : float;
      burst_rps : float;
      period_s : float;
      duty : float;
          (** Fraction of each period spent at [burst_rps] (in (0, 1)). *)
    }
  | Diurnal of {
      mean_rps : float;
      amplitude : float;  (** Relative swing in [0, 1]. *)
      period_s : float;
    }

val validate : process -> (process, string) result
(** Check rate/period/duty/amplitude bounds; [Ok] returns the input. *)

val parse : string -> (process, string) result
(** Parse a CLI spec:
    - ["poisson:RATE"]
    - ["bursty:BASE,BURST,PERIOD"] or ["bursty:BASE,BURST,PERIOD,DUTY"]
      (duty defaults to 0.5)
    - ["diurnal:MEAN,AMPLITUDE,PERIOD"]
    Rates in requests/second, periods in (virtual) seconds. The error
    message names the malformed field. *)

val to_spec : process -> string
(** Render back to the {!parse} syntax (round-trips). *)

val rate_at : process -> float -> float
(** Instantaneous rate lambda(t), requests/second. *)

val peak_rate : process -> float
(** An upper bound on {!rate_at} over all [t] (the thinning envelope). *)

val times : process -> seed:int -> duration_s:float -> float array
(** Arrival times in [0, duration_s), nondecreasing. See the determinism
    note above; the array for a shorter duration is a prefix of the array
    for a longer one at the same seed. *)
