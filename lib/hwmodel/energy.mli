(** Per-event energy model and energy accounting ledger.

    Dynamic energy is accumulated per event category; static (leakage +
    clock) energy of the tiles a workload actually occupies is added over
    the execution latency, mirroring how PUMAsim charges a workload only
    for the resources it maps to. All values in picojoules unless noted. *)

type category =
  | Mvm  (** Full 16-bit crossbar MVM (all slices, DAC/ADC). *)
  | Vfu  (** One vector lane-operation. *)
  | Sfu  (** One scalar ALU operation. *)
  | Lut  (** One ROM-Embedded-RAM transcendental lookup. *)
  | Rf  (** One register-file word access. *)
  | Xbar_reg  (** One XbarIn/XbarOut word access. *)
  | Fetch  (** One instruction fetch + decode. *)
  | Smem  (** One shared-memory word access. *)
  | Bus  (** One word over the tile memory bus. *)
  | Attr  (** One attribute-buffer check/update. *)
  | Fifo  (** One word pushed/popped in the receive buffer. *)
  | Noc  (** One word over one on-chip network hop. *)
  | Offchip  (** One word over the chip-to-chip link. *)
  | Static  (** Leakage/clock energy of occupied tiles over runtime. *)

val all_categories : category list
val category_name : category -> string

val per_event_pj : Config.t -> category -> float
(** Energy of a single event of the category ({!Static} returns 0; use
    {!add_static}). *)

(** {1 Ledger} *)

type t

val create : Config.t -> t
val config : t -> Config.t

val add : t -> category -> int -> unit
(** [add t cat n] records [n] events of category [cat]. *)

val charge : t -> (category * int) list -> unit
(** [charge t events] is {!add} for each [(cat, n)] in order, without
    allocating. *)

val add_pj : t -> category -> float -> unit
(** Record raw picojoules against a category (used for {!Static}). *)

val add_static : t -> tiles:int -> cycles:float -> unit
(** Charge static energy for [tiles] occupied tiles over [cycles] clock
    cycles. A tile's static share is modelled as 20% of its Table 3 power
    budget. *)

val static_tile_pj : Config.t -> cycles:float -> float
(** One tile's static share over [cycles] (what {!add_static} charges per
    occupied tile) — used to spread the static charge over tiles for
    per-tile attribution. *)

val count : t -> category -> int
val energy_pj : t -> category -> float
val total_pj : t -> float
val total_uj : t -> float
val merge_into : dst:t -> src:t -> unit
(** Adds [src]'s counts and energies into [dst]. Per-tile attribution rows
    merge only when both ledgers have attribution enabled for the same
    number of tiles. *)

val breakdown : t -> (category * float) list
(** Nonzero categories with their energy, sorted descending. *)

(** {1 Per-tile attribution}

    Opt-in (attached by the profiling layer): events recorded while a tile
    scope is set are additionally tallied against that tile; everything
    else lands on an extra "unattributed" row. The global accumulators are
    maintained with exactly the same float operations whether or not
    attribution is enabled, so {!total_pj} and {!energy_pj} are
    bit-identical either way. The attributed rows sum to {!total_pj} up to
    float re-association (separate accumulation order). *)

val enable_attribution : t -> num_tiles:int -> unit
(** Allocate (or reset) per-tile rows for [num_tiles] tiles plus the
    unattributed row, and clear the scope. *)

val disable_attribution : t -> unit
val attribution_enabled : t -> bool

val attributed_tiles : t -> int
(** Number of tile rows (0 when attribution is detached). *)

val set_scope : t -> int -> unit
(** Set the tile subsequent {!add} events are attributed to ([-1] = none;
    out-of-range scopes land on the unattributed row). A single mutable
    field write: cheap enough for the simulator's inner loop. *)

val attribute_pj : t -> tile:int -> category -> float -> unit
(** Add raw picojoules to a tile's attribution row {e only} — the global
    ledger is untouched. Used to spread an already-recorded global charge
    (static energy) over the tiles that incurred it. No-op when
    attribution is detached. *)

val tile_count : t -> tile:int -> category -> int
val tile_energy_pj : t -> tile:int -> category -> float
val tile_total_pj : t -> tile:int -> float
(** Raise [Invalid_argument] when attribution is detached; a [tile] out of
    range (e.g. [-1]) reads the unattributed row. *)

val unattributed_total_pj : t -> float
val attributed_total_pj : t -> float
(** Sum over all rows including unattributed; equals {!total_pj} up to
    float re-association once static energy has been attributed. *)

val tile_breakdown : t -> tile:int -> (category * float) list

val pp : Format.formatter -> t -> unit
