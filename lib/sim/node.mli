(** PUMAsim: cycle-approximate functional co-simulation of a node.

    Executes a compiled {!Puma_isa.Program.t} on the tile/core/NoC models:
    cores and tile control units advance independently, blocking on the
    shared-memory attribute protocol and on receive FIFOs; messages
    traverse the mesh with the {!Puma_noc.Network} latency model. The
    simulator detects deadlock (every live entity blocked with an idle
    network) and reports aggregate cycles and the shared energy ledger.

    One scheduler loop runs every inference. Each pass drains outgoing
    messages, delivers arrived ones, steps the ready entities (TCU, then
    cores, tiles ascending) and checks for completion, then time
    advances. Cores, TCUs and the pre-decoded streams all answer a step
    with {!Puma_arch.Core}'s int step code. The loop has two modes, fixed
    per run: {!run} (fast) and {!run_reference} (the oracle). *)

exception Deadlock of string

(** Low-level instrumentation callbacks fired by the run loop (the one
    observer slot, behind {!Puma_profile.Profile}). In every
    callback [core = -1] designates the tile control unit, and [now] is
    the simulated cycle.

    Semantics the consumer can rely on, on both {!run} and
    {!run_reference}:
    - [on_run_start]/[on_run_end] bracket each run (not fired when the
      run aborts on deadlock or the cycle cap);
    - [on_retire] fires once per retired instruction, which occupies the
      entity for [cycles] starting at [now];
    - [on_stall] fires on the first failed step attempt of a stall
      episode, and again whenever a retry is made; a retry may be skipped
      while the state the entity waits on is unchanged, so the reason
      last reported before the next retire or halt is the one that held
      since that state last changed;
    - [on_halt] fires at exactly the cycle a stepped entity runs out of
      work, and may fire again on later passes (consumers deduplicate).
      A core whose pc ran past its stream counts as halted without
      another step, so it may see no [on_halt] at all;
    - [on_deliver] fires when a message enters a receive FIFO, with the
      occupancy after the push.

    When no probe is attached the run loop pays one branch per event. *)
type probe = {
  on_run_start : now:int -> unit;
  on_retire :
    now:int -> tile:int -> core:int -> cycles:int -> Puma_isa.Instr.t -> unit;
  on_stall : now:int -> tile:int -> core:int -> Puma_arch.Core.stall -> unit;
  on_halt : now:int -> tile:int -> core:int -> unit;
  on_deliver : now:int -> tile:int -> fifo:int -> occupancy:int -> unit;
  on_run_end : now:int -> unit;
}

val null_probe : probe
(** A probe whose callbacks do nothing: the base for a client that
    observes only some events ([{ Node.null_probe with on_retire = ... }]). *)

type t

val create :
  ?noise_seed:int ->
  ?faults:Puma_xbar.Fault.plan ->
  ?energy:Puma_hwmodel.Energy.t ->
  Puma_isa.Program.t ->
  t
(** Instantiate tiles, program crossbars (with write noise when the
    program's configuration has [write_noise_sigma > 0]; [noise_seed]
    makes it reproducible) and preload constant vectors.

    [faults] injects device/circuit faults at configuration time: each
    MVMU's fault set is realized deterministically from the plan's model
    and seed plus the stack's [(tile, core, mvmu)] coordinates, and its
    weights are routed through the plan's remap permutations when
    present. A plan with nothing to inject or remap leaves every stack
    on the exact fast path — bit-identical to passing no plan.

    [energy] is the ledger the tiles and the network charge (default: a
    fresh one). A multi-chip machine passes one ledger to every chip so
    that the {!join}ed node has a single ledger for the whole machine. *)

val join : network:Puma_noc.Network.t -> Puma_isa.Program.t -> t array -> t
(** [join ~network program shards] is a node over the global tile space
    of [program], whose tiles are the concatenation of the shards' tiles
    — shared, not copied, so crossbar images, constants and retired
    counts stay the shards'. The shards must split [program] into
    contiguous tile blocks in order (global tile [i] at position [i])
    and must have been {!create}d with one shared [~energy] ledger
    ([Invalid_argument] otherwise): that ledger is the joined node's
    {!energy}, charged by every tile and by [network] (typically carrying
    a {!Puma_noc.Fabric}), so per-tile attribution and {!finish_energy}
    see the whole machine. Running the joined
    node is running the whole machine under one clock; the shards
    themselves are never {!run}. *)

val config : t -> Puma_hwmodel.Config.t
val energy : t -> Puma_hwmodel.Energy.t
val num_tiles : t -> int

val tile : t -> int -> Puma_tile.Tile.t
(** The [i]-th tile model, for inspection (register files, shared
    memory); stepping it directly would corrupt the run loop. *)

val cycles : t -> int
(** Cycles elapsed in completed {!run} calls. *)

val run :
  t -> inputs:(string * float array) list -> (string * float array) list
(** Inject inputs, execute to completion, read outputs back. Raises
    {!Deadlock} or [Failure] on a runaway program (cycle cap). The
    instruction streams are reset between runs but register/memory
    contents persist (as in hardware), so each [run] is one inference.
    Every run takes the loop's fast mode — with or without a probe,
    per-tile energy attribution or a fault plan: cores run their
    pre-decoded streams, and blocked or halted entities are parked
    rather than re-stepped. *)

val run_reference :
  t -> inputs:(string * float array) list -> (string * float array) list
(** {!run} in the loop's reference mode, the test oracle the fast mode
    is pinned to: every core steps through [Core.step], every tile is
    drained and visited on every pass, every ready entity is stepped
    again (no parking), and time advances by a scan of every ready time.
    Outputs, cycle counts, retired counts, the energy ledger (counts
    {e and} picojoules) and the {!Puma_profile.Profile} a probe builds
    are bit-identical to {!run} — the contract test/test_fastpath.ml and
    test/test_profile.ml enforce. The probe itself sees every retry, so
    more [on_stall] (and [on_halt]) events than under {!run}. *)

val retired_instructions : t -> int
val tiles_used : t -> int
(** {!Puma_isa.Program.tiles_used} of the node's program. *)

val finish_energy : t -> unit
(** Charge static energy for the occupied tiles over this node's
    {!cycles}; call once after the last [run]. *)

val set_probe : t -> probe option -> unit
(** Install (or clear) the instrumentation probe; a node has one probe
    slot. Attaching a probe never changes simulation results: instruction
    semantics, cycle counts and the energy ledger totals are
    bit-identical with and without one. *)

val probe_attached : t -> bool

val last_run_fast : t -> bool
(** Whether the most recent run was {!run}, in the fast mode ([false]
    after {!run_reference} and before the first run). *)

val cycle_cap : int
(** Runaway-program guard: a single {!run} may not span more cycles
    than this. *)
