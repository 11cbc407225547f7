module Check = Puma_isa.Check
module Operand = Puma_isa.Operand
module Program = Puma_isa.Program
module Json = Puma_util.Json

type report = {
  diags : Diag.t list;
  errors : int;
  warnings : int;
  infos : int;
}

let make_report diags =
  let count sev =
    List.length (List.filter (fun (d : Diag.t) -> d.severity = sev) diags)
  in
  {
    diags;
    errors = count Diag.Error;
    warnings = count Diag.Warning;
    infos = count Diag.Info;
  }

let has_errors r = r.errors > 0

(* Rewrite E-IMEM messages to name the source layers responsible, using
   the compiler's provenance map. Runs even on structurally invalid
   programs: an over-budget stream is exactly the case where the deep
   passes are skipped but attribution is most useful. *)
let attribute_imem ~layer_of (p : Program.t) diags =
  List.map
    (fun (d : Diag.t) ->
      match (d.code, d.loc.tile) with
      | "E-IMEM", Some tile ->
          let core = d.loc.core in
          let capacity =
            match core with
            | Some _ -> p.Program.config.Puma_hwmodel.Config.imem_core_bytes
            | None -> p.Program.config.Puma_hwmodel.Config.imem_tile_bytes
          in
          let breakdown = Resource.imem_breakdown ~layer_of p ~tile ~core in
          if breakdown = [] then d
          else
            {
              d with
              message =
                d.message ^ ": "
                ^ Resource.render_breakdown ~capacity breakdown;
            }
      | _ -> d)
    diags

let program ?(ranges = false) ?(resources = false) ?input_range
    ?(dump_ranges = false) ?(order = false) ?(dump_hb = false) ?equiv ?run
    ?layer_of (p : Program.t) =
  let order = order || dump_hb in
  let structural = Check.diagnose p in
  let structural =
    match layer_of with
    | Some layer_of when resources -> attribute_imem ~layer_of p structural
    | _ -> structural
  in
  let has_structural_errors =
    List.exists (fun (d : Diag.t) -> d.severity = Diag.Error) structural
  in
  (* One symbolic run behind the register, channel and count checks, the
     value ranges, the cost bound and the translation validation;
     intervals only when ranges are reported. *)
  let run =
    lazy
      (match run with
      | Some r -> r
      | None ->
          let ranges = ranges && not has_structural_errors in
          Equiv.run ?input_range ~ranges
            ~keep_ranges:(ranges && dump_ranges)
            ?reference:equiv p)
  in
  let diags =
    if has_structural_errors then
      structural
      @ [
          Diag.info ~code:"I-SKIP"
            "dataflow, shared-memory and channel analyses skipped: the \
             program is structurally invalid";
        ]
    else begin
      let run = Lazy.force run in
      let layout = Operand.layout p.config in
      let regflow = ref [] in
      Array.iteri
        (fun pos (tp : Program.tile_program) ->
          Array.iteri
            (fun core code ->
              Option.iter
                (fun (e : Equiv.execution) ->
                  regflow :=
                    Regflow.analyze ~layout ~tile:tp.tile_index ~core
                      ~finished:e.finished code e.trace
                    :: !regflow)
                (run.Equiv.executions ~pos ~core:(Some core)))
            tp.core_code)
        p.tiles;
      structural
      @ List.concat (List.rev !regflow)
      @ run.Equiv.checks
      @ (if order then Order.analyze ~dump_hb p else [])
      @ (if ranges then run.Equiv.ranges else [])
      @ (if resources then Resource.report (Resource.estimate ~run p) else [])
    end
  in
  (* Translation validation reports on structurally invalid programs too
     (like imem attribution): the run does not start on a Check error
     other than E-IMEM, and says so in one W-EQUIV-UNKNOWN, while an
     over-budget stream (E-IMEM) still gets a meaningful verdict. *)
  let diags =
    match equiv with
    | None -> diags
    | Some _ -> (
        match (Lazy.force run).Equiv.equiv with
        | Some e -> diags @ e.Equiv.diags
        | None -> diags)
  in
  make_report (List.sort Diag.compare diags)

let pp ppf r =
  if r.diags = [] then Format.fprintf ppf "no diagnostics@."
  else begin
    List.iter (fun d -> Format.fprintf ppf "%a@." Diag.pp d) r.diags;
    Format.fprintf ppf "%d error(s), %d warning(s), %d info(s)@." r.errors
      r.warnings r.infos
  end

let to_string r = Format.asprintf "%a" pp r

let json ?name r =
  let fields =
    (match name with Some n -> [ ("name", Json.String n) ] | None -> [])
    @ [
        ("errors", Json.Int r.errors);
        ("warnings", Json.Int r.warnings);
        ("infos", Json.Int r.infos);
        ("diagnostics", Json.List (List.map Diag.to_json r.diags));
      ]
  in
  Json.Obj fields

let to_json ?name r = Json.to_string (json ?name r)
