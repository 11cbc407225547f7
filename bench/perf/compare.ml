module Json = Puma_util.Json

type better = Lower | Higher

type metric_def = {
  name : string;
  unit_ : string;
  better : better;
  bound : float option;
}

type run = {
  workload : string;
  seed : int;
  attempted : int;
  failed : int;
  values : (string * float) list;
}

let ( let* ) = Result.bind

let field name conv j =
  match Option.bind (Json.member name j) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing or malformed %S" name)

let run_of_json j =
  let* workload = field "workload" Json.to_str j in
  let* seed = field "seed" Json.to_int j in
  let* attempted = field "attempted" Json.to_int j in
  let* failed = field "failed" Json.to_int j in
  let* metrics =
    match Json.member "metrics" j with
    | Some (Json.Obj kvs) -> Ok kvs
    | _ -> Error "missing \"metrics\" object"
  in
  let* values =
    List.fold_right
      (fun (name, m) acc ->
        let* acc = acc in
        let* v = field "value" Json.to_float m in
        Ok ((name, v) :: acc))
      metrics (Ok [])
  in
  Ok { workload; seed; attempted; failed; values }

let runs_of_json = function
  | Json.List docs ->
      List.fold_right
        (fun d acc ->
          let* acc = acc in
          let* r = run_of_json d in
          Ok (r :: acc))
        docs (Ok [])
  | j -> Result.map (fun r -> [ r ]) (run_of_json j)

let run_to_json ~workload ~seed ~seconds ~trace ~correct ~attempted ~failed metrics =
  Json.Obj
    [
      ("bench", Json.String "puma-perf");
      ("schema", Json.Int 1);
      ("workload", Json.String workload);
      ("seed", Json.Int seed);
      ("seconds", Json.Int seconds);
      ("trace", Json.Bool trace);
      ("correct", Json.Bool correct);
      ("attempted", Json.Int attempted);
      ("failed", Json.Int failed);
      ( "metrics",
        Json.Obj
          (List.map
             (fun (name, v, u) ->
               (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.String u) ]))
             metrics) );
    ]

let defs_of_benchmark j =
  let section key ~bounded =
    match Json.member key j with
    | Some (Json.List ms) ->
        List.fold_right
          (fun m acc ->
            let* acc = acc in
            let* name = field "name" Json.to_str m in
            let* unit_ = field "unit" Json.to_str m in
            let* better =
              match Json.member "better" m with
              | Some (Json.String "lower") -> Ok Lower
              | Some (Json.String "higher") -> Ok Higher
              | _ -> Error (Printf.sprintf "%s: \"better\" must be lower or higher" name)
            in
            let* bound =
              if bounded then Result.map Option.some (field "bound" Json.to_float m)
              else Ok None
            in
            Ok ({ name; unit_; better; bound } :: acc))
          ms (Ok [])
    | _ -> Error (Printf.sprintf "missing %S list" key)
  in
  let* e2e = section "end_to_end" ~bounded:true in
  let* layers = section "per_layer" ~bounded:false in
  Ok (e2e @ layers)

type verdict = Identical | Within | Better | Regressed | Unresolved | Info

let verdict_name = function
  | Identical -> "identical"
  | Within -> "within bound"
  | Better -> "better"
  | Regressed -> "REGRESSED"
  | Unresolved -> "UNRESOLVED"
  | Info -> "-"

type row = {
  workload : string;
  metric : string;
  unit_ : string;
  base : float * float * float;
  fresh : float * float * float;
  n_base : int;
  n_fresh : int;
  change : float;
  spread : float;
  bound : float option;
  verdict : verdict;
}

(* Positive when [fresh] is worse than [base]. *)
let worse_by better ~base ~fresh =
  let d =
    if base = fresh then 0.0
    else if base = 0.0 then infinity
    else (fresh -. base) /. Float.abs base
  in
  match better with Lower -> d | Higher -> -.d

let reads_better better a b = match better with Lower -> a < b | Higher -> a > b

let judge (def : metric_def) base fresh =
  let q1, bm, q3 = Summary.quartiles base and f1, fm, f3 = Summary.quartiles fresh in
  let change = worse_by def.better ~base:bm ~fresh:fm in
  let spread = Float.max (Summary.spread base) (Summary.spread fresh) in
  let all_better =
    List.for_all (fun f -> List.for_all (fun b -> reads_better def.better f b) base) fresh
  in
  let verdict =
    match def.bound with
    | None -> Info
    | Some _ when List.for_all (fun v -> v = bm) (base @ fresh) -> Identical
    | Some _ when all_better -> Better
    | Some bound when spread > bound -> Unresolved
    | Some bound when change > bound -> Regressed
    | Some _ -> Within
  in
  {
    workload = "";
    metric = def.name;
    unit_ = def.unit_;
    base = (q1, bm, q3);
    fresh = (f1, fm, f3);
    n_base = List.length base;
    n_fresh = List.length fresh;
    change;
    spread;
    bound = def.bound;
    verdict;
  }

let failed_frac runs =
  let a = List.fold_left (fun acc (r : run) -> acc + r.attempted) 0 runs in
  let f = List.fold_left (fun acc (r : run) -> acc + r.failed) 0 runs in
  if a = 0 then 0.0 else Float.of_int f /. Float.of_int a

let compare defs ~base ~fresh =
  let workloads =
    List.sort_uniq compare (List.map (fun (r : run) -> r.workload) (base @ fresh))
  in
  List.concat_map
    (fun w ->
      let b = List.filter (fun (r : run) -> r.workload = w) base in
      let f = List.filter (fun (r : run) -> r.workload = w) fresh in
      if b = [] || f = [] then []
      else
        let values runs name =
          List.filter_map (fun (r : run) -> List.assoc_opt name r.values) runs
        in
        let failures =
          let fb = failed_frac b and ff = failed_frac f in
          {
            workload = w;
            metric = "ops_failed_frac";
            unit_ = "frac";
            base = (fb, fb, fb);
            fresh = (ff, ff, ff);
            n_base = List.length b;
            n_fresh = List.length f;
            change = ff -. fb;
            spread = 0.0;
            bound = Some 0.0;
            verdict = (if ff > fb then Regressed else if ff = fb then Identical else Better);
          }
        in
        failures
        :: List.filter_map
             (fun (def : metric_def) ->
               match (values b def.name, values f def.name) with
               | [], _ | _, [] -> None
               | vb, vf -> Some { (judge def vb vf) with workload = w })
             defs)
    workloads

let render rows =
  let t =
    Puma_util.Table.create ~title:"perf compare: base vs new (q1 / median / q3)"
      ~headers:
        [ "workload"; "metric"; "unit"; "base"; "new"; "runs"; "worse by"; "spread"; "bound"; "verdict" ]
  in
  let q (a, m, b) = Printf.sprintf "%.6g / %.6g / %.6g" a m b in
  let pct x = if x = 0.0 then "0" else Printf.sprintf "%+.2f%%" (100.0 *. x) in
  List.iter
    (fun r ->
      Puma_util.Table.add_row t
        [
          r.workload;
          r.metric;
          r.unit_;
          q r.base;
          q r.fresh;
          Printf.sprintf "%d/%d" r.n_base r.n_fresh;
          pct r.change;
          Printf.sprintf "%.2f%%" (100.0 *. r.spread);
          (match r.bound with Some b -> Printf.sprintf "%g%%" (100.0 *. b) | None -> "-");
          verdict_name r.verdict;
        ])
    rows;
  Puma_util.Table.render t ^ "\n"

type claim = {
  pairs : int;
  wins : int;
  win_frac : float;
  gain : float;
  base_iqr : float;
  met : bool;
}

let claim better ~base ~fresh =
  let rec zip a b =
    match (a, b) with x :: a, y :: b -> (x, y) :: zip a b | _ -> []
  in
  let pairs = zip base fresh in
  let n = List.length pairs in
  let wins = List.length (List.filter (fun (b, f) -> reads_better better f b) pairs) in
  let bq1, bm, bq3 = Summary.quartiles base in
  let fm = Summary.median fresh in
  let gain = match better with Lower -> bm -. fm | Higher -> fm -. bm in
  let win_frac = if n = 0 then 0.0 else Float.of_int wins /. Float.of_int n in
  let base_iqr = bq3 -. bq1 in
  { pairs = n; wins; win_frac; gain; base_iqr; met = n > 0 && win_frac >= 0.9 && gain > base_iqr }
