(** Whole-program static analysis driver for compiled PUMA programs.

    Runs, in order: the structural checker ({!Puma_isa.Check.diagnose}),
    then over one symbolic run ({!Equiv.run}) the per-core register
    checks along each stream's executed path ({!Regflow}) and the
    channel, consumer-count and deadlock checks over the state the run
    ends in ([checks]), and — opt-in — happens-before ordering
    ({!Order}), fixed-point value ranges ({!Range}), static
    resource/cost estimation ({!Resource}) and translation validation
    ({!Equiv}); the last three read the same run. Every structurally
    valid program gets the run. If the structural pass reports any error
    the semantic passes are skipped (and an [I-SKIP] info says so), since
    their preconditions do not hold on malformed programs; E-IMEM
    attribution still runs in that case when provenance is available.

    Diagnostics are sorted by location (tile, core, pc), then severity,
    then code. *)

type report = {
  diags : Diag.t list;
  errors : int;
  warnings : int;
  infos : int;
}

val program :
  ?ranges:bool ->
  ?resources:bool ->
  ?input_range:int * int ->
  ?dump_ranges:bool ->
  ?order:bool ->
  ?dump_hb:bool ->
  ?equiv:Equiv.dataflow ->
  ?run:Equiv.run ->
  ?layer_of:Resource.layer_of ->
  Puma_isa.Program.t ->
  report
(** [ranges] (default off) reports the run's value ranges; [input_range]
    and [dump_ranges] (its [keep_ranges]) are forwarded to the run.
    [resources] (default off) runs
    {!Resource.report} and, when [layer_of] provenance is supplied,
    appends a per-layer byte attribution to every [E-IMEM] message.
    [order] (default off) adds {!Order}'s happens-before checks
    ([E-RACE] / [E-FIFO-ORDER]); [dump_hb] additionally dumps the HB
    graph as [I-ORDER] infos (implies [order]). [equiv] (default off)
    runs the translation validator ({!Equiv}) against the given
    reference dataflow; unlike the other semantic passes it also reports
    on structurally invalid programs: one [W-EQUIV-UNKNOWN] naming the
    first [Check] error other than [E-IMEM], or a verdict when [E-IMEM]
    is the only one. One run serves every requested pass;
    [run] supplies one the caller made already (with the same
    [input_range], [dump_ranges] and [equiv]). *)

val has_errors : report -> bool

val make_report : Diag.t list -> report
(** Wrap an already-collected diagnostic list (counts severities). *)

val pp : Format.formatter -> report -> unit
(** One line per diagnostic plus a count summary; "no diagnostics" when
    the report is empty. *)

val to_string : report -> string

val json : ?name:string -> report -> Puma_util.Json.t
(** [{"name":..., "errors":n, "warnings":n, "infos":n,
    "diagnostics":[...]}]; ["name"] is included when given. *)

val to_json : ?name:string -> report -> string
(** {!json} rendered to a string. *)
