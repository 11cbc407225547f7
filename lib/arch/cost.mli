(** The per-instruction cost table: what one retired instruction occupies
    and what it charges to the energy ledger (PUMAsim charges every
    retired instruction its Table 3 per-component latency and energy).

    The core interpreter ({!Core.step}), the pre-decoded fast path, the
    tile control unit and the static cost bound all read this one table;
    a retire's [cycles] is the step code the simulator's loop reads. *)

type t = {
  cycles : int;  (** Occupancy of the issuing unit, in core cycles. *)
  charges : (Puma_hwmodel.Energy.category * int) list;
      (** Energy events in the order they are recorded: per active MVMU
          an [Mvm]/[Xbar_reg] pair, then the operand, unit and memory
          charges, with [Fetch] last. The order fixes each category's
          float sum, so ledgers are bit-identical across every reader.
          Recorded with {!Puma_hwmodel.Energy.charge}. *)
}

val of_instr :
  Puma_hwmodel.Config.t -> Puma_isa.Operand.layout -> Puma_isa.Instr.t -> t
(** Cost of one instruction, core and tile instructions alike ([Send] and
    [Receive] fetch nothing: the tile control unit charges no [Fetch]).
    [Halt] costs nothing. A register operand is charged by the space of
    its first word. Never raises, whatever the operands. *)

val energy_pj : Puma_hwmodel.Config.t -> t -> float
(** The charges' dynamic energy, at {!Puma_hwmodel.Energy.per_event_pj}. *)
