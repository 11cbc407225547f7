module Batch = Puma_runtime.Batch
module Cluster = Puma_cluster.Cluster
module Diag = Puma_analysis.Diag
module Fabric = Puma_noc.Fabric
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
  node_faults : int array;
  remapped_mvmus : int;
  fault_errors : int;
  fault_warnings : int;
  diags : Diag.t list;
  max_err_ulps : int;
  mean_err_ulps : float;
  flip_rate : float;
  node_flip_rates : float array;
  mean_cycles : float;
  responses : Batch.response array;
}

type report = {
  key : string;
  nodes : int;
  topology : Fabric.topology;
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

let sum f a = Array.fold_left (fun acc x -> acc + f x) 0 a

let run ?domains ?(nodes = 1) ?(topology = Fabric.Mesh2d) ~key program spec =
  if nodes < 1 then
    invalid_arg (Printf.sprintf "Campaign.run: %d nodes" nodes);
  List.iter
    (fun r ->
      match Fault_model.validate (at_rate spec.base r) with
      | Ok _ -> ()
      | Error msg -> invalid_arg ("Campaign.run: rate " ^ msg))
    spec.rates;
  let requests =
    Batch.random_requests program ~batch:spec.samples ~seed:spec.input_seed
  in
  (* Every batch, golden or faulted, replays the same requests on one
     freshly warmed machine, serially. *)
  let batch ?faults () =
    fst
      (Batch.run ~domains:1 ~cluster_nodes:nodes ~topology ?faults program
         requests)
  in
  let golden = batch () in
  (* Each chip realizes its faults independently, from its own shard
     program and its own seed: chip 0 takes the point's fault seed, chip
     [k] a seed mixed from it — uncorrelated defect maps, as on a real
     multi-chip machine. On one chip the shard is the whole program. *)
  let shards = Cluster.split_program program ~nodes in
  let chip_seed fault_seed k =
    if k = 0 then fault_seed else Batch.request_seed ~seed:fault_seed ~index:k
  in
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
                ~seed:(chip_seed fault_seed k) shard)
            shards
        in
        let plans = Array.map (fun r -> Some r.Remap.plan) remaps in
        let responses = batch ~faults:plans () in
        let max_err_ulps, mean_err_ulps, flip_rate =
          compare_batches ~golden responses
        in
        (* Blast radius per chip: rerun with only chip [k]'s plan live
           (on one chip, that is the run above). *)
        let node_flip_rates =
          if nodes = 1 then [| flip_rate |]
          else
            Array.init nodes (fun k ->
                let only =
                  Array.mapi (fun j p -> if j = k then p else None) plans
                in
                let _, _, flip =
                  compare_batches ~golden (batch ~faults:only ())
                in
                flip)
        in
        let mean_cycles =
          if Array.length responses = 0 then 0.0
          else
            float_of_int (sum (fun (r : Batch.response) -> r.cycles) responses)
            /. float_of_int (Array.length responses)
        in
        {
          rate;
          fault_seed;
          total_faults = sum (fun r -> r.Remap.total_faults) remaps;
          node_faults = Array.map (fun r -> r.Remap.total_faults) remaps;
          remapped_mvmus = sum (fun r -> r.Remap.remapped_mvmus) remaps;
          fault_errors = sum Remap.errors remaps;
          fault_warnings = sum Remap.warnings remaps;
          diags =
            List.concat_map (fun r -> r.Remap.diags) (Array.to_list remaps);
          max_err_ulps;
          mean_err_ulps;
          flip_rate;
          node_flip_rates;
          mean_cycles;
          responses;
        })
  in
  { key; nodes; topology; spec; golden; points }

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
      ( "node_faults",
        Json.List
          (Array.to_list p.node_faults |> List.map (fun n -> Json.Int n)) );
      ("total_faults", Json.Int p.total_faults);
      ("remapped_mvmus", Json.Int p.remapped_mvmus);
      ("fault_errors", Json.Int p.fault_errors);
      ("fault_warnings", Json.Int p.fault_warnings);
      ("diags", Json.List (List.map Diag.to_json p.diags));
      ("max_err_ulps", Json.Int p.max_err_ulps);
      ("mean_err_ulps", Json.Float p.mean_err_ulps);
      ( "node_flip_rates",
        Json.List
          (Array.to_list p.node_flip_rates
          |> List.map (fun f -> Json.Float f)) );
      ("flip_rate", Json.Float p.flip_rate);
      ("mean_cycles", Json.Float p.mean_cycles);
    ]

let to_json report =
  Json.Obj
    [
      ("model", Json.String report.key);
      ("nodes", Json.Int report.nodes);
      ("topology", Json.String (Fabric.topology_name report.topology));
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
  let chips = List.init report.nodes Fun.id in
  (* Per-chip blast-radius columns only where there is more than one. *)
  let per_chip f = if report.nodes = 1 then [] else List.map f chips in
  let t =
    Table.create
      ~title:
        (Printf.sprintf "fault campaign: %s (%s%d samples%s)" report.key
           (if report.nodes = 1 then ""
            else
              Printf.sprintf "%d nodes, %s, " report.nodes
                (Fabric.topology_name report.topology))
           report.spec.samples
           (if report.spec.remap then ", remap" else ""))
      ~headers:
        ([ "rate"; "seed"; "faults" ]
        @ per_chip (Printf.sprintf "n%d faults")
        @ [ "remapped"; "E"; "W"; "max ulps"; "mean ulps" ]
        @ per_chip (Printf.sprintf "n%d flip")
        @ [ "flip rate"; "mean cycles" ])
  in
  List.iter
    (fun (rate, pts) ->
      List.iter
        (fun p ->
          Table.add_row t
            ([
               Table.fmt_sci rate;
               string_of_int p.fault_seed;
               string_of_int p.total_faults;
             ]
            @ per_chip (fun k -> string_of_int p.node_faults.(k))
            @ [
               string_of_int p.remapped_mvmus;
               string_of_int p.fault_errors;
               string_of_int p.fault_warnings;
               string_of_int p.max_err_ulps;
               Table.fmt_float p.mean_err_ulps;
             ]
            @ per_chip (fun k -> Table.fmt_pct p.node_flip_rates.(k))
            @ [ Table.fmt_pct p.flip_rate; Table.fmt_float p.mean_cycles ]))
        pts;
      Table.add_row t
        ([
           Table.fmt_sci rate;
           "mean";
           Printf.sprintf "%.1f"
             (mean (fun p -> float_of_int p.total_faults) pts);
         ]
        @ per_chip (fun k ->
              Printf.sprintf "%.1f"
                (mean (fun p -> float_of_int p.node_faults.(k)) pts))
        @ [
           "";
           "";
           "";
           Printf.sprintf "%.1f"
             (mean (fun p -> float_of_int p.max_err_ulps) pts);
           Table.fmt_float (mean (fun p -> p.mean_err_ulps) pts);
         ]
        @ per_chip (fun k ->
              Table.fmt_pct (mean (fun p -> p.node_flip_rates.(k)) pts))
        @ [ Table.fmt_pct (mean (fun p -> p.flip_rate) pts); "" ]);
      Table.add_sep t)
    (by_rate report);
  t

let pp fmt report = Format.pp_print_string fmt (Table.render (table report))
