(* perf: the repository's benchmark.

     perf.exe --workload NAME --seed N [--seconds S] [--trace 0|1]
              [--json FILE] [--smoke]
     perf.exe --workload all ...        each workload in its own process
     perf.exe compare [--claim WORKLOAD:METRIC] BASE.json... -- NEW.json...

   A run prints every metric by name with its unit and clock, then, as
   its last line, one JSON object: {"correct", "attempted", "failed",
   "metrics"}. Untraced runs report the end-to-end metrics; traced runs
   (--trace 1) report the per-layer metrics, print a self-time table and
   write a Chrome trace to perf-trace-NAME.json. Compare reads its bounds
   from BENCHMARK.json in the current directory. See bench/perf/README.md. *)

module Json = Puma_util.Json

let usage =
  "usage: perf.exe --workload (zoo-compile|zoo-serve|zoo-observed|mlpl4-x2|all) --seed N \
   [--seconds S] [--trace 0|1] [--json FILE] [--smoke]\n\
  \       perf.exe compare [--claim WORKLOAD:METRIC] BASE.json... -- NEW.json..."

let die msg =
  prerr_endline ("perf: " ^ msg);
  exit 2

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  json : string option;
  smoke : bool;
}

let parse_run args =
  let int_of name v = match int_of_string_opt v with Some n -> n | None -> die (name ^ ": not an integer: " ^ v) in
  let rec go o = function
    | [] -> o
    | "--workload" :: v :: rest -> go { o with workload = v } rest
    | "--seed" :: v :: rest -> go { o with seed = int_of "--seed" v } rest
    | "--seconds" :: v :: rest -> (
        match float_of_string_opt v with
        | Some s when s >= 0.0 -> go { o with seconds = s } rest
        | _ -> die ("--seconds: not a duration: " ^ v))
    | "--trace" :: v :: rest -> (
        match v with
        | "0" -> go { o with trace = false } rest
        | "1" -> go { o with trace = true } rest
        | _ -> die "--trace takes 0 or 1")
    | "--json" :: v :: rest -> go { o with json = Some v } rest
    | "--smoke" :: rest -> go { o with smoke = true } rest
    | a :: _ -> die ("unknown argument " ^ a ^ "\n" ^ usage)
  in
  let o =
    go
      { workload = ""; seed = 1; seconds = 20.0; trace = false; json = None; smoke = false }
      args
  in
  if o.workload = "" then die usage;
  if o.smoke then { o with seconds = 0.0 } else o

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb -> Float.of_int kb /. 1024.0)
    | _ -> find ()
    | exception End_of_file -> failwith "VmHWM missing from /proc/self/status"
  in
  Fun.protect ~finally:(fun () -> close_in ic) find

let write_file path f =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> f oc)

let write_json path j =
  write_file path (fun oc ->
      let b = Buffer.create 4096 in
      Json.to_buffer b j;
      Buffer.output_buffer oc b;
      output_char oc '\n')

(* A run's result: the last line of its output. *)
type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;  (** name, value, unit *)
}

let result_line r =
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool r.correct);
         ("attempted", Json.Int r.attempted);
         ("failed", Json.Int r.failed);
         ( "metrics",
           Json.Obj
             (List.map
                (fun (name, v, u) -> (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.String u) ]))
                r.metrics) );
       ])

let result_of_line line =
  let ( let* ) = Option.bind in
  let field key conv j = Option.bind (Json.member key j) conv in
  let* j = Result.to_option (Json.parse line) in
  let* correct = field "correct" (function Json.Bool b -> Some b | _ -> None) j in
  let* attempted = field "attempted" Json.to_int j in
  let* failed = field "failed" Json.to_int j in
  let* metrics =
    match Json.member "metrics" j with
    | Some (Json.Obj kvs) ->
        List.fold_right
          (fun (name, m) acc ->
            let* acc = acc in
            let* v = field "value" Json.to_float m in
            let* u = field "unit" Json.to_str m in
            Some ((name, v, u) :: acc))
          kvs (Some [])
    | _ -> None
  in
  Some { correct; attempted; failed; metrics }

let run_doc o ~workload r =
  Compare.run_to_json ~workload ~seed:o.seed ~seconds:(Float.to_int o.seconds) ~trace:o.trace
    ~correct:r.correct ~attempted:r.attempted ~failed:r.failed r.metrics

(* Registry order, with a loud failure if a workload forgot a metric. *)
let select entries values =
  List.map
    (fun (e : Registry.entry) ->
      match List.assoc_opt e.name values with
      | Some v -> (e, v)
      | None -> failwith ("metric not computed: " ^ e.name))
    entries

let self_table spans ~wall =
  let t =
    Puma_util.Table.create ~title:"per-layer self time (traced run)"
      ~headers:[ "span"; "calls"; "self s"; "share of wall"; "total s" ]
  in
  List.iter
    (fun (name, (s : Span.self)) ->
      Puma_util.Table.add_row t
        [
          name;
          string_of_int s.calls;
          Printf.sprintf "%.4f" s.self_s;
          Printf.sprintf "%.2f%%" (100.0 *. s.self_s /. wall);
          Printf.sprintf "%.4f" s.total_s;
        ])
    (Span.self_times spans);
  Puma_util.Table.render t ^ "\n"

let run_one o f =
  let trace = Span.create ~enabled:o.trace () in
  let ctx = { Workloads.seed = o.seed; seconds = o.seconds; smoke = o.smoke; trace } in
  let outcome = Span.with_span trace "perf.run" (fun () -> f ctx) in
  let rss = peak_rss_mb () in
  let t = outcome.Workloads.tally in
  let correct = t.failed = 0 in
  Printf.printf "perf: workload %s, seed %d, %g s budget%s%s\n" o.workload o.seed o.seconds
    (if o.trace then ", traced" else "")
    (if o.smoke then ", smoke" else "");
  let selected =
    if o.trace then begin
      let spans = Span.spans trace in
      let root = List.find (fun (s : Span.span) -> s.name = "perf.run") spans in
      let wall = Int64.to_float (Int64.sub root.stop_ns root.start_ns) *. 1e-9 in
      let selfs = Span.self_times spans in
      let self_of name = Option.fold ~none:0.0 ~some:(fun (s : Span.self) -> s.self_s) (List.assoc_opt name selfs) in
      (* Layer spans must explain the traced part of the run: what the
         root span keeps for itself is unexplained time. *)
      let traced_wall = wall -. self_of "bench.untraced" in
      let coverage = 1.0 -. (self_of "perf.run" /. traced_wall) in
      print_string (self_table spans ~wall);
      let out = Printf.sprintf "perf-trace-%s.json" o.workload in
      write_json out (Span.to_chrome spans);
      Printf.printf "chrome trace: %s (%d spans); layer spans cover %.1f%% of the %.2f s traced (of %.2f s wall)\n"
        out (List.length spans) (100.0 *. coverage) traced_wall wall;
      select Registry.per_layer
        (("trace.coverage_frac", coverage) :: Workloads.layer_metrics ~selfs outcome.layers)
    end
    else select Registry.end_to_end (("peak_rss_mb", rss) :: outcome.e2e)
  in
  List.iter
    (fun ((e : Registry.entry), v) ->
      Printf.printf "  %-38s %16.6g %-7s %s\n" e.name v e.unit_ (Registry.clock_name e.clock))
    selected;
  Printf.printf
    "  simulated and accuracy metrics: %d inferences of the fixed prefix (%d beyond p99)\n"
    outcome.samples (outcome.samples / 100);
  Printf.printf "  ops: %d attempted, %d failed (ops_failed_frac %.4f); peak RSS %.1f MB\n" t.attempted
    t.failed
    (Float.of_int t.failed /. Float.of_int (max 1 t.attempted))
    rss;
  List.iter (fun n -> prerr_endline ("perf: failed op: " ^ n)) (List.rev t.notes);
  let r =
    {
      correct;
      attempted = t.attempted;
      failed = t.failed;
      metrics = List.map (fun ((e : Registry.entry), v) -> (e.name, v, e.unit_)) selected;
    }
  in
  Option.iter (fun path -> write_json path (run_doc o ~workload:o.workload r)) o.json;
  print_endline (result_line r)

(* Each workload in a child process of its own, so peak RSS is per
   workload; children run one after another. *)
let run_all o =
  let results =
    List.map
      (fun (name, _) ->
        let args =
          [ Sys.executable_name; "--workload"; name; "--seed"; string_of_int o.seed; "--seconds";
            Printf.sprintf "%g" o.seconds; "--trace"; (if o.trace then "1" else "0") ]
          @ if o.smoke then [ "--smoke" ] else []
        in
        let ic = Unix.open_process_args_in Sys.executable_name (Array.of_list args) in
        let rec echo last =
          match input_line ic with
          | line ->
              print_endline line;
              echo line
          | exception End_of_file -> last
        in
        let last = echo "" in
        (match Unix.close_process_in ic with
        | Unix.WEXITED 0 -> ()
        | _ -> die (name ^ ": workload process failed"));
        match result_of_line last with
        | Some r -> (name, r)
        | None -> die (name ^ ": unreadable result line"))
      Workloads.all
  in
  Option.iter
    (fun path -> write_json path (Json.List (List.map (fun (w, r) -> run_doc o ~workload:w r) results)))
    o.json;
  let sum f = List.fold_left (fun acc (_, r) -> acc + f r) 0 results in
  print_endline
    (result_line
       {
         correct = List.for_all (fun (_, r) -> r.correct) results;
         attempted = sum (fun r -> r.attempted);
         failed = sum (fun r -> r.failed);
         metrics =
           List.concat_map
             (fun (w, r) -> List.map (fun (n, v, u) -> (w ^ "." ^ n, v, u)) r.metrics)
             results;
       })

let run_compare args =
  let rec split acc = function
    | "--" :: rest -> (List.rev acc, rest)
    | a :: rest -> split (a :: acc) rest
    | [] -> die ("compare needs BASE.json... -- NEW.json...\n" ^ usage)
  in
  let claim, rest =
    match args with "--claim" :: c :: rest -> (Some c, rest) | rest -> (None, rest)
  in
  let bench = "BENCHMARK.json" in
  let base_files, new_files = split [] rest in
  if base_files = [] || new_files = [] then die usage;
  let read path =
    match Json.parse (In_channel.with_open_bin path In_channel.input_all) with
    | Ok j -> j
    | Error e -> die (path ^ ": " ^ e)
    | exception Sys_error e -> die e
  in
  let runs files =
    List.concat_map
      (fun f -> match Compare.runs_of_json (read f) with Ok r -> r | Error e -> die (f ^ ": " ^ e))
      files
  in
  let defs = match Compare.defs_of_benchmark (read bench) with Ok d -> d | Error e -> die (bench ^ ": " ^ e) in
  let base = runs base_files and fresh = runs new_files in
  let rows = Compare.compare defs ~base ~fresh in
  print_string (Compare.render rows);
  let bad =
    List.filter
      (fun (r : Compare.row) -> r.verdict = Compare.Regressed || r.verdict = Compare.Unresolved)
      rows
  in
  Printf.printf "%d regressed or unresolved of %d compared\n" (List.length bad) (List.length rows);
  let claim_ok =
    match claim with
    | None -> true
    | Some c -> (
        match String.index_opt c ':' with
        | None -> die "--claim takes WORKLOAD:METRIC"
        | Some i ->
            let w = String.sub c 0 i and m = String.sub c (i + 1) (String.length c - i - 1) in
            let def =
              match List.find_opt (fun (d : Compare.metric_def) -> d.name = m) defs with
              | Some d -> d
              | None -> die ("unknown metric " ^ m)
            in
            let values runs =
              List.filter_map
                (fun (r : Compare.run) -> if r.workload = w then List.assoc_opt m r.values else None)
                runs
            in
            let vb = values base and vf = values fresh in
            if vb = [] || vf = [] then die ("no runs of " ^ c ^ " on both sides");
            let cl = Compare.claim def.better ~base:vb ~fresh:vf in
            Printf.printf
              "claim %s: new wins %d of %d pairs (%.0f%%, need 90%%); median gain %.6g vs base \
               quartile distance %.6g: %s\n"
              c cl.wins cl.pairs (100.0 *. cl.win_frac) cl.gain cl.base_iqr
              (if cl.met then "MET" else "NOT MET");
            cl.met)
  in
  exit (if bad = [] && claim_ok then 0 else 1)

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "compare" :: rest -> run_compare rest
  | args -> (
      let o = parse_run args in
      if o.workload = "all" then run_all o
      else
        match List.assoc_opt o.workload Workloads.all with
        | None -> die ("unknown workload " ^ o.workload ^ "\n" ^ usage)
        | Some f -> (
            try run_one o f with
            | Failure msg | Invalid_argument msg -> die msg
            | Puma_sim.Node.Deadlock msg -> die ("deadlock: " ^ msg)))
