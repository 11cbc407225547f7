module Batch = Puma_runtime.Batch
module Cluster = Puma_cluster.Cluster
module Diag = Puma_analysis.Diag
module Fixed = Puma_util.Fixed
module Json = Puma_util.Json
module Pool = Puma_util.Pool
module Table = Puma_util.Table

type spec = {
  base : Fault_model.t;
  rates : float list;
  fault_seeds : int list;
  samples : int;
  input_seed : int;
  remap : bool;
}

let default_spec =
  {
    base = Fault_model.ideal;
    rates = [ 1e-4; 1e-3; 1e-2 ];
    fault_seeds = [ 1; 2 ];
    samples = 8;
    input_seed = 7;
    remap = false;
  }

let at_rate (base : Fault_model.t) r =
  { base with stuck_rate = r; dead_in_rate = r; dead_out_rate = r }

type point = {
  rate : float;
  fault_seed : int;
  total_faults : int;
  remapped_mvmus : int;
  fault_errors : int;
  fault_warnings : int;
  diags : Diag.t list;
  max_err_ulps : int;
  mean_err_ulps : float;
  flip_rate : float;
  mean_cycles : float;
  responses : Batch.response array;
}

type report = {
  key : string;
  spec : spec;
  golden : Batch.response array;
  points : point array;
}

let raw v = Fixed.to_raw (Fixed.of_float v)

let concat_outputs (r : Batch.response) =
  Array.concat (List.map snd r.outputs)

let argmax v =
  let best = ref 0 in
  Array.iteri (fun i x -> if x > v.(!best) then best := i) v;
  !best

(* Error statistics of one faulty batch against the golden batch: ulp
   distances element-wise, argmax flips sample-wise. *)
let compare_batches ~(golden : Batch.response array)
    (faulty : Batch.response array) =
  let max_err = ref 0 in
  let sum_err = ref 0.0 in
  let elements = ref 0 in
  let flips = ref 0 in
  Array.iteri
    (fun i (g : Batch.response) ->
      let f = faulty.(i) in
      List.iter2
        (fun (gn, gv) (fn, fv) ->
          assert (String.equal gn fn);
          Array.iteri
            (fun k x ->
              let e = abs (raw fv.(k) - raw x) in
              if e > !max_err then max_err := e;
              sum_err := !sum_err +. float_of_int e;
              incr elements)
            gv)
        g.outputs f.outputs;
      if argmax (concat_outputs g) <> argmax (concat_outputs f) then
        incr flips)
    golden;
  let n = Array.length golden in
  ( !max_err,
    (if !elements = 0 then 0.0 else !sum_err /. float_of_int !elements),
    if n = 0 then 0.0 else float_of_int !flips /. float_of_int n )

let run ?domains ~key program spec =
  List.iter
    (fun r ->
      match Fault_model.validate (at_rate spec.base r) with
      | Ok _ -> ()
      | Error msg -> invalid_arg ("Campaign.run: rate " ^ msg))
    spec.rates;
  let requests =
    Batch.random_requests program ~batch:spec.samples ~seed:spec.input_seed
  in
  let golden, _ = Batch.run ~domains:1 program requests in
  let grid =
    List.concat_map
      (fun rate -> List.map (fun seed -> (rate, seed)) spec.fault_seeds)
      spec.rates
    |> Array.of_list
  in
  let points =
    Pool.map_init ?domains ~n:(Array.length grid)
      ~init:(fun ~worker:_ -> ())
      (fun () k ->
        let rate, fault_seed = grid.(k) in
        let model = at_rate spec.base rate in
        let r = Remap.build ~remap:spec.remap ~model ~seed:fault_seed program in
        let responses, _ =
          Batch.run ~domains:1 ~faults:r.Remap.plan program requests
        in
        let max_err_ulps, mean_err_ulps, flip_rate =
          compare_batches ~golden responses
        in
        let mean_cycles =
          if Array.length responses = 0 then 0.0
          else
            float_of_int
              (Array.fold_left
                 (fun acc (resp : Batch.response) -> acc + resp.cycles)
                 0 responses)
            /. float_of_int (Array.length responses)
        in
        {
          rate;
          fault_seed;
          total_faults = r.Remap.total_faults;
          remapped_mvmus = r.Remap.remapped_mvmus;
          fault_errors = Remap.errors r;
          fault_warnings = Remap.warnings r;
          diags = r.Remap.diags;
          max_err_ulps;
          mean_err_ulps;
          flip_rate;
          mean_cycles;
          responses;
        })
  in
  { key; spec; golden; points }

let by_rate report =
  List.map
    (fun rate ->
      ( rate,
        Array.to_list report.points
        |> List.filter (fun p -> p.rate = rate) ))
    report.spec.rates

let model_json (m : Fault_model.t) =
  Json.Obj
    [
      ("stuck_rate", Json.Float m.stuck_rate);
      ("stuck_on_fraction", Json.Float m.stuck_on_fraction);
      ("dead_in_rate", Json.Float m.dead_in_rate);
      ("dead_out_rate", Json.Float m.dead_out_rate);
      ("drift_tau_cycles", Json.Float m.drift_tau_cycles);
      ("drift_age_cycles", Json.Float m.drift_age_cycles);
      ("adc_offset_sigma", Json.Float m.adc_offset_sigma);
    ]

let point_json p =
  Json.Obj
    [
      ("rate", Json.Float p.rate);
      ("fault_seed", Json.Int p.fault_seed);
      ("total_faults", Json.Int p.total_faults);
      ("remapped_mvmus", Json.Int p.remapped_mvmus);
      ("fault_errors", Json.Int p.fault_errors);
      ("fault_warnings", Json.Int p.fault_warnings);
      ("diags", Json.List (List.map Diag.to_json p.diags));
      ("max_err_ulps", Json.Int p.max_err_ulps);
      ("mean_err_ulps", Json.Float p.mean_err_ulps);
      ("flip_rate", Json.Float p.flip_rate);
      ("mean_cycles", Json.Float p.mean_cycles);
    ]

let to_json report =
  Json.Obj
    [
      ("model", Json.String report.key);
      ("samples", Json.Int report.spec.samples);
      ("input_seed", Json.Int report.spec.input_seed);
      ("remap", Json.Bool report.spec.remap);
      ("base", model_json report.spec.base);
      ("rates", Json.List (List.map (fun r -> Json.Float r) report.spec.rates));
      ( "fault_seeds",
        Json.List (List.map (fun s -> Json.Int s) report.spec.fault_seeds) );
      ("points", Json.List (Array.to_list report.points |> List.map point_json));
    ]

let mean f l =
  match l with
  | [] -> 0.0
  | _ ->
      List.fold_left (fun acc p -> acc +. f p) 0.0 l
      /. float_of_int (List.length l)

let table report =
  let t =
    Table.create
      ~title:
        (Printf.sprintf "fault campaign: %s (%d samples%s)" report.key
           report.spec.samples
           (if report.spec.remap then ", remap" else ""))
      ~headers:
        [
          "rate"; "seed"; "faults"; "remapped"; "E"; "W"; "max ulps";
          "mean ulps"; "flip rate"; "mean cycles";
        ]
  in
  List.iter
    (fun (rate, pts) ->
      List.iter
        (fun p ->
          Table.add_row t
            [
              Table.fmt_sci rate;
              string_of_int p.fault_seed;
              string_of_int p.total_faults;
              string_of_int p.remapped_mvmus;
              string_of_int p.fault_errors;
              string_of_int p.fault_warnings;
              string_of_int p.max_err_ulps;
              Table.fmt_float p.mean_err_ulps;
              Table.fmt_pct p.flip_rate;
              Table.fmt_float p.mean_cycles;
            ])
        pts;
      Table.add_row t
        [
          Table.fmt_sci rate;
          "mean";
          Printf.sprintf "%.1f" (mean (fun p -> float_of_int p.total_faults) pts);
          "";
          "";
          "";
          Printf.sprintf "%.1f" (mean (fun p -> float_of_int p.max_err_ulps) pts);
          Table.fmt_float (mean (fun p -> p.mean_err_ulps) pts);
          Table.fmt_pct (mean (fun p -> p.flip_rate) pts);
          "";
        ];
      Table.add_sep t)
    (by_rate report);
  t

let pp fmt report = Format.pp_print_string fmt (Table.render (table report))

(* ------------------------------------------------------------------ *)
(* Multi-node campaigns                                                *)
(* ------------------------------------------------------------------ *)

type cluster_point = {
  c_rate : float;
  c_fault_seed : int;
  node_faults : int array;
  c_total_faults : int;
  c_fault_errors : int;
  c_fault_warnings : int;
  node_flip_rates : float array;
  c_flip_rate : float;
  c_max_err_ulps : int;
  c_mean_err_ulps : float;
  c_mean_cycles : float;
}

type cluster_report = {
  c_key : string;
  c_nodes : int;
  c_topology : Puma_noc.Fabric.topology;
  c_spec : spec;
  c_golden : Batch.response array;
  c_points : cluster_point array;
}

(* Replay the request batch on one freshly built (and warmed) cluster,
   serially, exactly like Batch.run with one worker — so faulted
   responses line up with a Batch.run golden bit for bit. *)
let cluster_batch ~nodes ~topology ?node_faults program requests =
  let node = Batch.warmed_node ~nodes ~topology ?node_faults program in
  Array.of_list (List.map (Batch.serve node) requests)

let run_cluster ?domains ?(topology = Puma_noc.Fabric.Mesh2d) ~nodes ~key
    program spec =
  if nodes < 1 then
    invalid_arg (Printf.sprintf "Campaign.run_cluster: %d nodes" nodes);
  List.iter
    (fun r ->
      match Fault_model.validate (at_rate spec.base r) with
      | Ok _ -> ()
      | Error msg -> invalid_arg ("Campaign.run_cluster: rate " ^ msg))
    spec.rates;
  let requests =
    Batch.random_requests program ~batch:spec.samples ~seed:spec.input_seed
  in
  let golden, _ =
    Batch.run ~domains:1 ~cluster_nodes:nodes ~topology program requests
  in
  (* Each chip realizes its faults independently: node [k]'s plan comes
     from its own shard program and a per-node seed mixed from the grid
     point's fault seed, mirroring how a real multi-chip machine has
     uncorrelated defect maps. *)
  let shards = Cluster.split_program program ~nodes in
  let grid =
    List.concat_map
      (fun rate -> List.map (fun seed -> (rate, seed)) spec.fault_seeds)
      spec.rates
    |> Array.of_list
  in
  let points =
    Pool.map_init ?domains ~n:(Array.length grid)
      ~init:(fun ~worker:_ -> ())
      (fun () g ->
        let rate, fault_seed = grid.(g) in
        let model = at_rate spec.base rate in
        let remaps =
          Array.mapi
            (fun k shard ->
              Remap.build ~remap:spec.remap ~model
                ~seed:(Batch.request_seed ~seed:fault_seed ~index:k)
                shard)
            shards
        in
        let plans = Array.map (fun r -> Some r.Remap.plan) remaps in
        let faulty = cluster_batch ~nodes ~topology ~node_faults:plans
            program requests in
        let c_max_err_ulps, c_mean_err_ulps, c_flip_rate =
          compare_batches ~golden faulty
        in
        (* Blast radius per chip: rerun with only node [k]'s plan live. *)
        let node_flip_rates =
          Array.init nodes (fun k ->
              let only =
                Array.mapi (fun j p -> if j = k then p else None) plans
              in
              let _, _, flip =
                compare_batches ~golden
                  (cluster_batch ~nodes ~topology ~node_faults:only
                     program requests)
              in
              flip)
        in
        let c_mean_cycles =
          if Array.length faulty = 0 then 0.0
          else
            float_of_int
              (Array.fold_left
                 (fun acc (r : Batch.response) -> acc + r.cycles)
                 0 faulty)
            /. float_of_int (Array.length faulty)
        in
        {
          c_rate = rate;
          c_fault_seed = fault_seed;
          node_faults =
            Array.map (fun r -> r.Remap.total_faults) remaps;
          c_total_faults =
            Array.fold_left (fun acc r -> acc + r.Remap.total_faults) 0 remaps;
          c_fault_errors =
            Array.fold_left (fun acc r -> acc + Remap.errors r) 0 remaps;
          c_fault_warnings =
            Array.fold_left (fun acc r -> acc + Remap.warnings r) 0 remaps;
          node_flip_rates;
          c_flip_rate;
          c_max_err_ulps;
          c_mean_err_ulps;
          c_mean_cycles;
        })
  in
  {
    c_key = key;
    c_nodes = nodes;
    c_topology = topology;
    c_spec = spec;
    c_golden = golden;
    c_points = points;
  }

let cluster_point_json p =
  Json.Obj
    [
      ("rate", Json.Float p.c_rate);
      ("fault_seed", Json.Int p.c_fault_seed);
      ( "node_faults",
        Json.List
          (Array.to_list p.node_faults |> List.map (fun n -> Json.Int n)) );
      ("total_faults", Json.Int p.c_total_faults);
      ("fault_errors", Json.Int p.c_fault_errors);
      ("fault_warnings", Json.Int p.c_fault_warnings);
      ( "node_flip_rates",
        Json.List
          (Array.to_list p.node_flip_rates
          |> List.map (fun f -> Json.Float f)) );
      ("flip_rate", Json.Float p.c_flip_rate);
      ("max_err_ulps", Json.Int p.c_max_err_ulps);
      ("mean_err_ulps", Json.Float p.c_mean_err_ulps);
      ("mean_cycles", Json.Float p.c_mean_cycles);
    ]

let cluster_to_json report =
  Json.Obj
    [
      ("model", Json.String report.c_key);
      ("nodes", Json.Int report.c_nodes);
      ( "topology",
        Json.String (Puma_noc.Fabric.topology_name report.c_topology) );
      ("samples", Json.Int report.c_spec.samples);
      ("input_seed", Json.Int report.c_spec.input_seed);
      ("remap", Json.Bool report.c_spec.remap);
      ("base", model_json report.c_spec.base);
      ( "rates",
        Json.List (List.map (fun r -> Json.Float r) report.c_spec.rates) );
      ( "fault_seeds",
        Json.List (List.map (fun s -> Json.Int s) report.c_spec.fault_seeds)
      );
      ( "points",
        Json.List
          (Array.to_list report.c_points |> List.map cluster_point_json) );
    ]

let cluster_table report =
  let t =
    Table.create
      ~title:
        (Printf.sprintf "multi-node fault campaign: %s (%d nodes, %s, %d samples%s)"
           report.c_key report.c_nodes
           (Puma_noc.Fabric.topology_name report.c_topology)
           report.c_spec.samples
           (if report.c_spec.remap then ", remap" else ""))
      ~headers:
        ([ "rate"; "seed"; "faults" ]
        @ List.init report.c_nodes (fun k -> Printf.sprintf "n%d flip" k)
        @ [ "cluster flip"; "max ulps"; "mean ulps"; "mean cycles" ])
  in
  Array.iter
    (fun p ->
      Table.add_row t
        ([
           Table.fmt_sci p.c_rate;
           string_of_int p.c_fault_seed;
           string_of_int p.c_total_faults;
         ]
        @ (Array.to_list p.node_flip_rates |> List.map Table.fmt_pct)
        @ [
            Table.fmt_pct p.c_flip_rate;
            string_of_int p.c_max_err_ulps;
            Table.fmt_float p.c_mean_err_ulps;
            Table.fmt_float p.c_mean_cycles;
          ]))
    report.c_points;
  t

let pp_cluster fmt report =
  Format.pp_print_string fmt (Table.render (cluster_table report))
