module Batch = Puma_runtime.Batch
module Energy = Puma_hwmodel.Energy
module Pool = Puma_util.Pool
module Rng = Puma_util.Rng
module Stats = Puma_util.Stats
module Json = Puma_util.Json
module Table = Puma_util.Table
module Program = Puma_isa.Program

type model = {
  name : string;
  program : Program.t;
  priority : int;
  queue_limit : int;
  slo_ms : float option;
}

let model ?(priority = 0) ?(queue_limit = 0) ?slo_ms ~name program =
  if queue_limit < 0 then
    invalid_arg "Engine.model: queue_limit must be nonnegative";
  { name; program; priority; queue_limit; slo_ms }

type config = { nodes : int; max_batch : int; input_seed : int }

type arrival = { cycle : int; model : int }
type workload = arrival array

let cycle_of_s ~frequency_ghz s =
  int_of_float (Float.round (s *. frequency_ghz *. 1e9))

let synthesize ~models process ~seed ~duration_s ~frequency_ghz =
  if models <= 0 then invalid_arg "Engine.synthesize: no models";
  let ts = Arrival.times process ~seed ~duration_s in
  (* Index -1 is outside the candidate streams Arrival.times consumes
     (2k, 2k+1 for k >= 0), so assignment draws never collide with gap or
     acceptance draws. *)
  let assign = Rng.stream (Rng.create seed) (-1) in
  Array.mapi
    (fun k t ->
      {
        cycle = cycle_of_s ~frequency_ghz t;
        model = (if models = 1 then 0 else Rng.int (Rng.stream assign k) models);
      })
    ts

let model_input_seed ~input_seed ~model =
  Batch.request_seed ~seed:input_seed ~index:model

let validate_workload models (workload : workload) =
  let nm = Array.length models in
  if nm = 0 then invalid_arg "Engine: no models";
  Array.iteri
    (fun i a ->
      if a.model < 0 || a.model >= nm then
        invalid_arg
          (Printf.sprintf "Engine: arrival %d names model %d of %d" i a.model
             nm);
      if a.cycle < 0 then
        invalid_arg (Printf.sprintf "Engine: arrival %d at negative cycle" i);
      if i > 0 && a.cycle < workload.(i - 1).cycle then
        invalid_arg
          (Printf.sprintf "Engine: workload not sorted at arrival %d" i))
    workload

(* Per-arrival index into its model's request stream. *)
let model_request_indices models (workload : workload) =
  let next = Array.make (Array.length models) 0 in
  Array.map
    (fun a ->
      let r = next.(a.model) in
      next.(a.model) <- r + 1;
      r)
    workload

let model_counts models (workload : workload) =
  let counts = Array.make (Array.length models) 0 in
  Array.iter (fun a -> counts.(a.model) <- counts.(a.model) + 1) workload;
  counts

let requests_for config models workload m =
  validate_workload models workload;
  if m < 0 || m >= Array.length models then
    invalid_arg "Engine.requests_for: model index out of range";
  let counts = model_counts models workload in
  Batch.random_requests models.(m).program ~batch:counts.(m)
    ~seed:(model_input_seed ~input_seed:config.input_seed ~model:m)

type cost = {
  cycles : int;
  energy_pj : float;
  outputs : (string * float array) list;
}

type served = {
  arrival : int;
  model : int;
  model_request : int;
  arrival_cycle : int;
  start_cycle : int;
  finish_cycle : int;
  node : int;
  cycles : int;
  energy_pj : float;
  outputs : (string * float array) list;
}

type rejection = {
  arrival : int;
  model : int;
  model_request : int;
  arrival_cycle : int;
  queue_depth : int;
}

type model_stats = {
  name : string;
  priority : int;
  queue_limit : int;
  arrivals : int;
  served : int;
  rejected : int;
  rejection_rate : float;
  p50_ms : float;
  p99_ms : float;
  p999_ms : float;
  mean_queue_depth : float;
  max_queue_depth : int;
  slo_ms : float option;
  slo_attainment : float;
  dynamic_energy_uj : float;
  throughput_rps : float;
}

type report = {
  nodes : int;
  max_batch : int;
  input_seed : int;
  frequency_ghz : float;
  arrivals : int;
  served : served array;
  rejections : rejection array;
  makespan_cycles : int;
  utilization : float;
  models : model_stats array;
  dynamic_energy_uj : float;
  static_energy_uj : float;
  total_energy_uj : float;
  event_cycles : int array;
}

let schedule (config : config) (models : model array) (workload : workload)
    (costs : cost array) =
  validate_workload models workload;
  if config.nodes < 1 then invalid_arg "Engine.schedule: nodes must be >= 1";
  if config.max_batch < 1 then
    invalid_arg "Engine.schedule: max_batch must be >= 1";
  let n = Array.length workload in
  let nm = Array.length models in
  if Array.length costs <> n then
    invalid_arg "Engine.schedule: one cost per arrival";
  Array.iteri
    (fun i (c : cost) ->
      if c.cycles <= 0 then
        invalid_arg
          (Printf.sprintf "Engine.schedule: arrival %d has cost %d cycles" i
             c.cycles))
    costs;
  let mreq = model_request_indices models workload in
  (* Per-model waiting queues of arrival indices. *)
  let queues = Array.init nm (fun _ -> Queue.create ()) in
  let depth = Array.make nm 0 in
  let depth_integral = Array.make nm 0.0 in
  let max_depth = Array.make nm 0 in
  (* A busy node's pending completion is its (finish, seq): seq numbers
     dispatches, so equal finish cycles complete in dispatch order and
     the loop is deterministic even when several nodes finish at once. *)
  let free = Array.make config.nodes true in
  let finish = Array.make config.nodes 0 in
  let seq = Array.make config.nodes 0 in
  let dispatches = ref 0 in
  let busy_cycles = ref 0 in
  (* Served requests by arrival index (each is served at most once), so
     arrival order needs no sort; [arrival = -1] marks an empty slot. *)
  let unserved =
    {
      arrival = -1;
      model = 0;
      model_request = 0;
      arrival_cycle = 0;
      start_cycle = 0;
      finish_cycle = 0;
      node = 0;
      cycles = 0;
      energy_pj = 0.0;
      outputs = [];
    }
  in
  let served_at = Array.make n unserved in
  let served_n = ref 0 in
  let rejected_acc = ref [] in
  let events = ref (Array.make 64 0) in
  let n_events = ref 0 in
  let now = ref 0 in
  let advance t =
    assert (t >= !now);
    if t > !now then begin
      let dt = Float.of_int (t - !now) in
      for m = 0 to nm - 1 do
        depth_integral.(m) <- depth_integral.(m) +. (Float.of_int depth.(m) *. dt)
      done;
      now := t
    end;
    if !n_events = Array.length !events then begin
      let a = Array.make (2 * !n_events) 0 in
      Array.blit !events 0 a 0 !n_events;
      events := a
    end;
    !events.(!n_events) <- t;
    incr n_events
  in
  let first_free () =
    let rec go i =
      if i = config.nodes then None else if free.(i) then Some i else go (i + 1)
    in
    go 0
  in
  (* Highest priority first; ties to the earliest waiting head, then the
     lowest model index — FIFO within a priority class. *)
  let pick_model () =
    let best = ref (-1) in
    for m = nm - 1 downto 0 do
      if depth.(m) > 0 then
        if !best < 0 then best := m
        else begin
          let b = !best in
          let pm = models.(m).priority and pb = models.(b).priority in
          if
            pm > pb
            || pm = pb
               && workload.(Queue.peek queues.(m)).cycle
                  < workload.(Queue.peek queues.(b)).cycle
          then best := m
        end
    done;
    if !best < 0 then None else Some !best
  in
  let rec dispatch () =
    match first_free () with
    | None -> ()
    | Some nd -> (
        match pick_model () with
        | None -> ()
        | Some m ->
            free.(nd) <- false;
            let start = !now in
            let last = ref start in
            let b = ref 0 in
            while !b < config.max_batch && depth.(m) > 0 do
              let idx = Queue.pop queues.(m) in
              depth.(m) <- depth.(m) - 1;
              let c = costs.(idx) in
              last := !last + c.cycles;
              busy_cycles := !busy_cycles + c.cycles;
              served_at.(idx) <-
                {
                  arrival = idx;
                  model = m;
                  model_request = mreq.(idx);
                  arrival_cycle = workload.(idx).cycle;
                  start_cycle = start;
                  finish_cycle = !last;
                  node = nd;
                  cycles = c.cycles;
                  energy_pj = c.energy_pj;
                  outputs = c.outputs;
                };
              incr served_n;
              incr b
            done;
            finish.(nd) <- !last;
            seq.(nd) <- !dispatches;
            incr dispatches;
            dispatch ())
  in
  (* The next completion: the busy node with the least (finish, seq), or
     -1 when every node is free. *)
  let next_completion () =
    let best = ref (-1) in
    for nd = 0 to config.nodes - 1 do
      if
        (not free.(nd))
        && (!best < 0
           || finish.(nd) < finish.(!best)
           || (finish.(nd) = finish.(!best) && seq.(nd) < seq.(!best)))
      then best := nd
    done;
    !best
  in
  let do_completion nd =
    advance finish.(nd);
    free.(nd) <- true;
    dispatch ()
  in
  let ai = ref 0 in
  let do_arrival () =
    let idx = !ai in
    incr ai;
    let a = workload.(idx) in
    advance a.cycle;
    let m = a.model in
    let limit = models.(m).queue_limit in
    if limit > 0 && depth.(m) >= limit then
      rejected_acc :=
        {
          arrival = idx;
          model = m;
          model_request = mreq.(idx);
          arrival_cycle = a.cycle;
          queue_depth = depth.(m);
        }
        :: !rejected_acc
    else begin
      Queue.push idx queues.(m);
      depth.(m) <- depth.(m) + 1;
      if depth.(m) > max_depth.(m) then max_depth.(m) <- depth.(m);
      dispatch ()
    end
  in
  let continue = ref true in
  while !continue do
    let nd = next_completion () in
    if nd < 0 && !ai = n then continue := false
    (* Completions before arrivals on a shared cycle: a node that frees
       exactly when a request lands serves it immediately. *)
    else if nd >= 0 && (!ai = n || finish.(nd) <= workload.(!ai).cycle) then
      do_completion nd
    else do_arrival ()
  done;
  let served = Array.make !served_n unserved in
  let k = ref 0 in
  Array.iter
    (fun (s : served) ->
      if s.arrival >= 0 then begin
        served.(!k) <- s;
        incr k
      end)
    served_at;
  let rejections =
    Array.of_list
      (List.sort
         (fun (a : rejection) b -> compare a.arrival b.arrival)
         !rejected_acc)
  in
  let freq = models.(0).program.Program.config.frequency_ghz in
  let makespan = !now in
  let makespan_s = Float.of_int makespan /. (freq *. 1e9) in
  let ms_of_cycles c = Float.of_int c /. (freq *. 1e6) in
  let counts = model_counts models workload in
  let dynamic_pj =
    Array.fold_left (fun acc (s : served) -> acc +. s.energy_pj) 0.0 served
  in
  let stats =
    Array.mapi
      (fun m (mdl : model) ->
        let lats =
          Array.make
            (Array.fold_left
               (fun acc (s : served) -> if s.model = m then acc + 1 else acc)
               0 served)
            0.0
        in
        let k = ref 0 in
        Array.iter
          (fun (s : served) ->
            if s.model = m then begin
              lats.(!k) <- ms_of_cycles (s.finish_cycle - s.arrival_cycle);
              incr k
            end)
          served;
        Stats.sort_floats lats;
        let served_n = Array.length lats in
        let rejected_n =
          Array.fold_left
            (fun acc (r : rejection) -> if r.model = m then acc + 1 else acc)
            0 rejections
        in
        let pct p =
          if served_n = 0 then 0.0 else Stats.percentile_sorted lats p
        in
        let energy_pj =
          Array.fold_left
            (fun acc (s : served) ->
              if s.model = m then acc +. s.energy_pj else acc)
            0.0 served
        in
        {
          name = mdl.name;
          priority = mdl.priority;
          queue_limit = mdl.queue_limit;
          arrivals = counts.(m);
          served = served_n;
          rejected = rejected_n;
          rejection_rate =
            (if counts.(m) = 0 then 0.0
             else Float.of_int rejected_n /. Float.of_int counts.(m));
          p50_ms = pct 50.0;
          p99_ms = pct 99.0;
          p999_ms = pct 99.9;
          mean_queue_depth =
            (if makespan = 0 then 0.0
             else depth_integral.(m) /. Float.of_int makespan);
          max_queue_depth = max_depth.(m);
          slo_ms = mdl.slo_ms;
          slo_attainment =
            (match mdl.slo_ms with
            | None -> 1.0
            | Some slo ->
                if served_n = 0 then 1.0
                else
                  Float.of_int
                    (Array.fold_left
                       (fun acc l -> if l <= slo then acc + 1 else acc)
                       0 lats)
                  /. Float.of_int served_n);
          dynamic_energy_uj = energy_pj /. 1.0e6;
          throughput_rps =
            (if makespan_s = 0.0 then 0.0
             else Float.of_int served_n /. makespan_s);
        })
      models
  in
  let static_pj =
    let tiles =
      config.nodes
      * Array.fold_left
          (fun acc (m : model) -> acc + Program.tiles_used m.program)
          0 models
    in
    let ledger = Energy.create models.(0).program.Program.config in
    Energy.add_static ledger ~tiles ~cycles:(Float.of_int makespan);
    Energy.total_pj ledger
  in
  {
    nodes = config.nodes;
    max_batch = config.max_batch;
    input_seed = config.input_seed;
    frequency_ghz = freq;
    arrivals = n;
    served;
    rejections;
    makespan_cycles = makespan;
    utilization =
      (if makespan = 0 then 0.0
       else
         Float.of_int !busy_cycles /. Float.of_int (config.nodes * makespan));
    models = stats;
    dynamic_energy_uj = dynamic_pj /. 1.0e6;
    static_energy_uj = static_pj /. 1.0e6;
    total_energy_uj = (dynamic_pj +. static_pj) /. 1.0e6;
    event_cycles = Array.sub !events 0 !n_events;
  }

let run ?domains ?cluster_nodes ?topology (config : config)
    (models : model array) (workload : workload) =
  validate_workload models workload;
  (match cluster_nodes with
  | Some c when c < 1 ->
      invalid_arg (Printf.sprintf "Engine.run: %d cluster nodes" c)
  | Some _ | None -> ());
  let n = Array.length workload in
  let mreq = model_request_indices models workload in
  let counts = model_counts models workload in
  let requests =
    Array.init (Array.length models) (fun m ->
        Array.of_list
          (Batch.random_requests models.(m).program ~batch:counts.(m)
             ~seed:(model_input_seed ~input_seed:config.input_seed ~model:m)))
  in
  let costs =
    if n = 0 then [||]
    else
      Pool.map_init ?domains ~n
        ~init:(fun ~worker:_ ->
          (* One warmed machine per resident model, built lazily so a
             worker only pays for the models it actually serves. With
             [cluster_nodes], every fleet slot is a whole multi-chip
             cluster instead of a single node. *)
          Array.map
            (fun (m : model) ->
              lazy
                (Batch.warmed_node ?nodes:cluster_nodes ?topology m.program))
            models)
        (fun machines i ->
          let a = workload.(i) in
          let r =
            Batch.serve
              (Lazy.force machines.(a.model))
              requests.(a.model).(mreq.(i))
          in
          {
            cycles = r.cycles;
            energy_pj = r.dynamic_energy_pj;
            outputs = r.outputs;
          })
  in
  schedule config models workload costs

let burst ~nodes model (responses : Batch.response array) =
  schedule
    { nodes; max_batch = 1; input_seed = 0 }
    [| model |]
    (Array.map (fun _ -> { cycle = 0; model = 0 }) responses)
    (Array.map
       (fun (r : Batch.response) ->
         {
           cycles = r.cycles;
           energy_pj = r.dynamic_energy_pj;
           outputs = r.outputs;
         })
       responses)

let latency_ms report (s : served) =
  Float.of_int (s.finish_cycle - s.arrival_cycle)
  /. (report.frequency_ghz *. 1e6)

let report_table report =
  let t =
    Table.create
      ~title:
        (Printf.sprintf
           "Serving report: %d arrivals on %d nodes (max batch %d)"
           report.arrivals report.nodes report.max_batch)
      ~headers:
        [
          "model"; "arrivals"; "served"; "rej%"; "p50 ms"; "p99 ms";
          "p99.9 ms"; "queue avg/max"; "SLO"; "inf/s"; "energy uJ";
        ]
  in
  Array.iter
    (fun (m : model_stats) ->
      Table.add_row t
        [
          m.name;
          string_of_int m.arrivals;
          string_of_int m.served;
          Printf.sprintf "%.1f" (100.0 *. m.rejection_rate);
          Printf.sprintf "%.4f" m.p50_ms;
          Printf.sprintf "%.4f" m.p99_ms;
          Printf.sprintf "%.4f" m.p999_ms;
          Printf.sprintf "%.1f/%d" m.mean_queue_depth m.max_queue_depth;
          (match m.slo_ms with
          | None -> "-"
          | Some _ -> Printf.sprintf "%.1f%%" (100.0 *. m.slo_attainment));
          Printf.sprintf "%.0f" m.throughput_rps;
          Printf.sprintf "%.3f" (m.dynamic_energy_uj);
        ])
    report.models;
  t

let pp_report fmt r =
  let served = Array.length r.served and rej = Array.length r.rejections in
  Format.fprintf fmt
    "@[<v>arrivals            %d (%d served, %d rejected)@,\
     fleet               %d nodes, max batch %d, utilization %.1f%%@,\
     makespan            %d cycles (%.4f ms virtual)@,\
     energy              %.3f uJ (%.3f dynamic + %.3f static)"
    r.arrivals served rej r.nodes r.max_batch
    (100.0 *. r.utilization)
    r.makespan_cycles
    (Float.of_int r.makespan_cycles /. (r.frequency_ghz *. 1e6))
    r.total_energy_uj r.dynamic_energy_uj r.static_energy_uj;
  Array.iter
    (fun (m : model_stats) ->
      Format.fprintf fmt
        "@,%-10s p50/p99/p99.9  %.4f / %.4f / %.4f ms; rejected %.1f%%; \
         queue %.1f avg / %d max%s"
        m.name m.p50_ms m.p99_ms m.p999_ms
        (100.0 *. m.rejection_rate)
        m.mean_queue_depth m.max_queue_depth
        (match m.slo_ms with
        | None -> ""
        | Some slo ->
            Printf.sprintf "; SLO %.3f ms attained %.1f%%" slo
              (100.0 *. m.slo_attainment)))
    r.models;
  Format.fprintf fmt "@]"

let to_json r =
  let model_json (m : model_stats) =
    Json.Obj
      [
        ("name", Json.String m.name);
        ("priority", Json.Int m.priority);
        ("queue_limit", Json.Int m.queue_limit);
        ("arrivals", Json.Int m.arrivals);
        ("served", Json.Int m.served);
        ("rejected", Json.Int m.rejected);
        ("rejection_rate", Json.Float m.rejection_rate);
        ("p50_ms", Json.Float m.p50_ms);
        ("p99_ms", Json.Float m.p99_ms);
        ("p999_ms", Json.Float m.p999_ms);
        ("mean_queue_depth", Json.Float m.mean_queue_depth);
        ("max_queue_depth", Json.Int m.max_queue_depth);
        ( "slo_ms",
          match m.slo_ms with None -> Json.Null | Some s -> Json.Float s );
        ("slo_attainment", Json.Float m.slo_attainment);
        ("dynamic_energy_uj", Json.Float m.dynamic_energy_uj);
        ("throughput_rps", Json.Float m.throughput_rps);
      ]
  in
  let served_json (s : served) =
    Json.Obj
      [
        ("arrival", Json.Int s.arrival);
        ("model", Json.Int s.model);
        ("model_request", Json.Int s.model_request);
        ("arrival_cycle", Json.Int s.arrival_cycle);
        ("admitted", Json.Bool true);
        ("start_cycle", Json.Int s.start_cycle);
        ("finish_cycle", Json.Int s.finish_cycle);
        ("node", Json.Int s.node);
        ("cycles", Json.Int s.cycles);
        ("energy_pj", Json.Float s.energy_pj);
      ]
  in
  let rejection_json (j : rejection) =
    Json.Obj
      [
        ("arrival", Json.Int j.arrival);
        ("model", Json.Int j.model);
        ("model_request", Json.Int j.model_request);
        ("arrival_cycle", Json.Int j.arrival_cycle);
        ("admitted", Json.Bool false);
        ("queue_depth", Json.Int j.queue_depth);
      ]
  in
  (* Served and rejected records interleave back into arrival order. *)
  let requests = Array.make r.arrivals Json.Null in
  Array.iter (fun (s : served) -> requests.(s.arrival) <- served_json s) r.served;
  Array.iter
    (fun (j : rejection) -> requests.(j.arrival) <- rejection_json j)
    r.rejections;
  Json.Obj
    [
      ("nodes", Json.Int r.nodes);
      ("max_batch", Json.Int r.max_batch);
      ("input_seed", Json.Int r.input_seed);
      ("frequency_ghz", Json.Float r.frequency_ghz);
      ("arrivals", Json.Int r.arrivals);
      ("makespan_cycles", Json.Int r.makespan_cycles);
      ("utilization", Json.Float r.utilization);
      ("dynamic_energy_uj", Json.Float r.dynamic_energy_uj);
      ("static_energy_uj", Json.Float r.static_energy_uj);
      ("total_energy_uj", Json.Float r.total_energy_uj);
      ("models", Json.List (Array.to_list (Array.map model_json r.models)));
      ("requests", Json.List (Array.to_list requests));
    ]
