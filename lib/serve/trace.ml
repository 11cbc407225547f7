module Json = Puma_util.Json
module Program = Puma_isa.Program
module Partition = Puma_compiler.Partition
module Fabric = Puma_noc.Fabric

type model_spec = {
  name : string;
  priority : int;
  queue_limit : int;
  slo_ms : float option;
}

type outcome =
  | Admitted of {
      start_cycle : int;
      finish_cycle : int;
      node : int;
      cycles : int;
      energy_pj : float;
    }
  | Rejected of { queue_depth : int }

type recorded = { model : int; arrival_cycle : int; outcome : outcome }

type t = {
  mvmu_dim : int;
  nodes : int;
  chips : int;
  scheme : Partition.scheme;
  topology : Fabric.topology;
  max_batch : int;
  input_seed : int;
  frequency_ghz : float;
  arrival_spec : string;
  models : model_spec array;
  requests : recorded array;
}

let version = 2

let of_report ?(arrival_spec = "") ?(chips = 1)
    ?(scheme = Partition.Pipelined) ?(topology = Fabric.Mesh2d)
    (models : Engine.model array) (report : Engine.report) =
  let requests = Array.make report.Engine.arrivals None in
  Array.iter
    (fun (s : Engine.served) ->
      requests.(s.arrival) <-
        Some
          {
            model = s.model;
            arrival_cycle = s.arrival_cycle;
            outcome =
              Admitted
                {
                  start_cycle = s.start_cycle;
                  finish_cycle = s.finish_cycle;
                  node = s.node;
                  cycles = s.cycles;
                  energy_pj = s.energy_pj;
                };
          })
    report.Engine.served;
  Array.iter
    (fun (r : Engine.rejection) ->
      requests.(r.arrival) <-
        Some
          {
            model = r.model;
            arrival_cycle = r.arrival_cycle;
            outcome = Rejected { queue_depth = r.queue_depth };
          })
    report.Engine.rejections;
  {
    mvmu_dim = models.(0).Engine.program.Program.config.mvmu_dim;
    nodes = report.Engine.nodes;
    chips;
    scheme;
    topology;
    max_batch = report.Engine.max_batch;
    input_seed = report.Engine.input_seed;
    frequency_ghz = report.Engine.frequency_ghz;
    arrival_spec;
    models =
      Array.map
        (fun (m : Engine.model) ->
          {
            name = m.Engine.name;
            priority = m.Engine.priority;
            queue_limit = m.Engine.queue_limit;
            slo_ms = m.Engine.slo_ms;
          })
        models;
    requests =
      Array.map
        (function
          | Some r -> r
          | None -> invalid_arg "Trace.of_report: arrival neither served nor rejected")
        requests;
  }

let to_json t =
  let model_json m =
    Json.Obj
      [
        ("name", Json.String m.name);
        ("priority", Json.Int m.priority);
        ("queue_limit", Json.Int m.queue_limit);
        ( "slo_ms",
          match m.slo_ms with None -> Json.Null | Some s -> Json.Float s );
      ]
  in
  let request_json i r =
    let base =
      [
        ("arrival", Json.Int i);
        ("model", Json.Int r.model);
        ("arrival_cycle", Json.Int r.arrival_cycle);
      ]
    in
    Json.Obj
      (base
      @
      match r.outcome with
      | Admitted a ->
          [
            ("admitted", Json.Bool true);
            ("start_cycle", Json.Int a.start_cycle);
            ("finish_cycle", Json.Int a.finish_cycle);
            ("node", Json.Int a.node);
            ("cycles", Json.Int a.cycles);
            ("energy_pj", Json.Float a.energy_pj);
          ]
      | Rejected r ->
          [ ("admitted", Json.Bool false); ("queue_depth", Json.Int r.queue_depth) ])
  in
  Json.Obj
    [
      ("version", Json.Int version);
      ("mvmu_dim", Json.Int t.mvmu_dim);
      ("nodes", Json.Int t.nodes);
      ("chips", Json.Int t.chips);
      ("scheme", Json.String (Partition.scheme_name t.scheme));
      ("topology", Json.String (Fabric.topology_name t.topology));
      ("max_batch", Json.Int t.max_batch);
      ("input_seed", Json.Int t.input_seed);
      ("frequency_ghz", Json.Float t.frequency_ghz);
      ("arrival_spec", Json.String t.arrival_spec);
      ("models", Json.List (Array.to_list (Array.map model_json t.models)));
      ( "requests",
        Json.List (Array.to_list (Array.mapi request_json t.requests)) );
    ]

let save path t =
  let oc = open_out path in
  output_string oc (Json.to_string (to_json t));
  output_char oc '\n';
  close_out oc

(* --- Loading --- *)

let line_of_offset content offset =
  let line = ref 1 in
  let stop = min offset (String.length content) in
  for i = 0 to stop - 1 do
    if content.[i] = '\n' then incr line
  done;
  !line

exception Bad of string

let need what = function
  | Some v -> v
  | None -> raise (Bad (what ^ " missing or ill-typed"))

let field obj name = Json.member name obj
let int_field obj name = need name (Option.bind (field obj name) Json.to_int)

let float_field obj name =
  need name (Option.bind (field obj name) Json.to_float)

let str_field obj name = need name (Option.bind (field obj name) Json.to_str)

let bool_field obj name =
  need name
    (Option.bind (field obj name) (function
      | Json.Bool b -> Some b
      | _ -> None))

let decode doc =
  let v = int_field doc "version" in
  if v <> version then
    raise (Bad (Printf.sprintf "unsupported trace version %d (want %d)" v version));
  let models =
    need "models" (Option.bind (field doc "models") Json.to_list)
    |> List.map (fun m ->
           {
             name = str_field m "name";
             priority = int_field m "priority";
             queue_limit = int_field m "queue_limit";
             slo_ms =
               (match field m "slo_ms" with
               | None | Some Json.Null -> None
               | Some j -> Some (need "slo_ms" (Json.to_float j)));
           })
    |> Array.of_list
  in
  if Array.length models = 0 then raise (Bad "trace lists no models");
  let requests =
    need "requests" (Option.bind (field doc "requests") Json.to_list)
    |> List.mapi (fun i r ->
           let here what = Printf.sprintf "request %d: %s" i what in
           let model = int_field r "model" in
           if model < 0 || model >= Array.length models then
             raise (Bad (here "model index out of range"));
           let outcome =
             if bool_field r "admitted" then
               Admitted
                 {
                   start_cycle = int_field r "start_cycle";
                   finish_cycle = int_field r "finish_cycle";
                   node = int_field r "node";
                   cycles = int_field r "cycles";
                   energy_pj = float_field r "energy_pj";
                 }
             else Rejected { queue_depth = int_field r "queue_depth" }
           in
           { model; arrival_cycle = int_field r "arrival_cycle"; outcome })
    |> Array.of_list
  in
  Array.iteri
    (fun i r ->
      if i > 0 && r.arrival_cycle < requests.(i - 1).arrival_cycle then
        raise (Bad (Printf.sprintf "request %d arrives out of order" i)))
    requests;
  {
    mvmu_dim = int_field doc "mvmu_dim";
    nodes = int_field doc "nodes";
    chips = int_field doc "chips";
    scheme = need "scheme" (Partition.scheme_of_string (str_field doc "scheme"));
    topology =
      need "topology" (Fabric.topology_of_string (str_field doc "topology"));
    max_batch = int_field doc "max_batch";
    input_seed = int_field doc "input_seed";
    frequency_ghz = float_field doc "frequency_ghz";
    arrival_spec = str_field doc "arrival_spec";
    models;
    requests;
  }

let load path =
  match
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  with
  | exception Sys_error e -> Error e
  | content -> (
      match Json.parse content with
      | Error e ->
          (* Json.parse errors carry a character offset ("at offset N:
             ..."); surface it as a 1-based line number. *)
          let line =
            try Scanf.sscanf e "at offset %d" (line_of_offset content)
            with Scanf.Scan_failure _ | Failure _ | End_of_file -> 1
          in
          Error (Printf.sprintf "%s: line %d: %s" path line e)
      | Ok doc -> (
          match decode doc with
          | t -> Ok t
          | exception Bad msg -> Error (Printf.sprintf "%s: %s" path msg)))

let workload_of t =
  Array.map
    (fun r -> { Engine.cycle = r.arrival_cycle; model = r.model })
    t.requests

let config_of t =
  { Engine.nodes = t.nodes; max_batch = t.max_batch; input_seed = t.input_seed }

let check t (report : Engine.report) =
  if Array.length t.requests <> report.Engine.arrivals then
    Error
      (Printf.sprintf "trace has %d requests, replay served %d arrivals"
         (Array.length t.requests) report.Engine.arrivals)
  else begin
    (* Rebuild per-arrival outcomes from the replayed report. *)
    let n = report.Engine.arrivals in
    let got = Array.make n None in
    Array.iter
      (fun (s : Engine.served) ->
        got.(s.arrival) <-
          Some
            ( s.model,
              s.arrival_cycle,
              Admitted
                {
                  start_cycle = s.start_cycle;
                  finish_cycle = s.finish_cycle;
                  node = s.node;
                  cycles = s.cycles;
                  energy_pj = s.energy_pj;
                } ))
      report.Engine.served;
    Array.iter
      (fun (r : Engine.rejection) ->
        got.(r.arrival) <-
          Some
            (r.model, r.arrival_cycle, Rejected { queue_depth = r.queue_depth }))
      report.Engine.rejections;
    let result = ref (Ok ()) in
    (try
       Array.iteri
         (fun i want ->
           let fail fmt =
             Printf.ksprintf
               (fun s ->
                 result := Error (Printf.sprintf "arrival %d: %s" i s);
                 raise Exit)
               fmt
           in
           match got.(i) with
           | None -> fail "replay lost the request"
           | Some (model, cycle, outcome) ->
               if model <> want.model then
                 fail "model %d, trace recorded %d" model want.model;
               if cycle <> want.arrival_cycle then
                 fail "arrival cycle %d, trace recorded %d" cycle
                   want.arrival_cycle;
               (match (outcome, want.outcome) with
               | Admitted a, Admitted w ->
                   if a.start_cycle <> w.start_cycle then
                     fail "start cycle %d, trace recorded %d" a.start_cycle
                       w.start_cycle;
                   if a.finish_cycle <> w.finish_cycle then
                     fail "finish cycle %d, trace recorded %d" a.finish_cycle
                       w.finish_cycle;
                   if a.node <> w.node then
                     fail "node %d, trace recorded %d" a.node w.node;
                   if a.cycles <> w.cycles then
                     fail "cost %d cycles, trace recorded %d" a.cycles w.cycles;
                   if a.energy_pj <> w.energy_pj then
                     fail "energy %.17g pJ, trace recorded %.17g" a.energy_pj
                       w.energy_pj
               | Rejected a, Rejected w ->
                   if a.queue_depth <> w.queue_depth then
                     fail "rejected at depth %d, trace recorded %d"
                       a.queue_depth w.queue_depth
               | Admitted _, Rejected _ -> fail "admitted, trace rejected it"
               | Rejected _, Admitted _ -> fail "rejected, trace admitted it"))
         t.requests
     with Exit -> ());
    !result
  end
