(** Static per-core resource and cost estimation.

    Capacity accounting (instruction-memory budgets with per-layer
    attribution, register-pressure high-water marks from liveness along
    each core stream's executed path) and
    sound lower bounds on execution cost (cycles and dynamic energy).
    Each stream's bound is the sum over the pcs the symbolic run
    executed ({!Equiv.execution}: scalar registers are concrete, so
    loops take their real trip counts) of the table the simulator
    itself charges ({!Puma_arch.Cost}); the cycle bound excludes the last
    executed instruction's occupancy (the simulator ends a stream at its
    final instruction's retire time). The simulator only adds stalls and
    contention on top, so [cycle_lower_bound <= simulated makespan] and
    [energy_lower_bound_pj <= dynamic energy] for every program
    (cross-validated by the [static_vs_sim] bench table and the tests).
    A run that stopped short counts a prefix of each stream, which keeps
    both bounds sound; the pressure of a stream it did not finish covers
    that prefix only.

    Diagnostics from {!report}: [I-PRESSURE] per core stream (register
    and imem utilization), [I-COST] per program (the lower bounds). *)

type layer_of = tile:int -> core:int option -> pc:int -> string option
(** Compiler provenance: source-graph layer label of the instruction at
    [pc] of a stream ([core = None] is the tile control stream). *)

type pressure = {
  xin_hw : int;  (** Max simultaneously-live XbarIn words. *)
  xin_cap : int;
  xout_hw : int;
  xout_cap : int;
  gpr_hw : int;  (** Max simultaneously-live register-file words. *)
  gpr_cap : int;
  sreg_hw : int;
}

type stream = {
  tile : int;
  core : int option;  (** [None] for the tile control unit stream. *)
  instrs : int;
  imem_bytes : int;  (** Encoded size ({!Puma_isa.Encode}). *)
  imem_capacity : int;
  cycles : int;  (** Executed cycles, less the last instruction's. *)
  energy_pj : float;  (** Dynamic energy of the executed instructions. *)
  pressure : pressure option;  (** [None] for tile streams. *)
}

type t = {
  streams : stream list;
  cycle_lower_bound : int;  (** Max over streams (they run concurrently). *)
  energy_lower_bound_pj : float;
      (** Sum over streams, less a relative 1e-9 so float rounding cannot
          lift it above the simulator's ledger. *)
}

val estimate : ?run:Equiv.run -> Puma_isa.Program.t -> t
(** [run] is the program's symbolic run, when the caller has it already
    (as {!Analyze.program} does); by default it is made here. *)

val imem_breakdown :
  layer_of:layer_of ->
  Puma_isa.Program.t ->
  tile:int ->
  core:int option ->
  (string * int) list
(** Encoded bytes of one stream attributed to source-graph layer labels,
    largest first; instructions without provenance (batch-loop control,
    spills) land on ["(runtime)"]. *)

val render_breakdown : capacity:int -> (string * int) list -> string
(** One-line rendering of a breakdown for an over-budget stream
    ("… B over the … B budget; largest layers: …"). *)

val report : t -> Diag.t list
