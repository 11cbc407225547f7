type category =
  | Mvm
  | Vfu
  | Sfu
  | Lut
  | Rf
  | Xbar_reg
  | Fetch
  | Smem
  | Bus
  | Attr
  | Fifo
  | Noc
  | Offchip
  | Static

let all_categories =
  [ Mvm; Vfu; Sfu; Lut; Rf; Xbar_reg; Fetch; Smem; Bus; Attr; Fifo; Noc; Offchip; Static ]

let category_name = function
  | Mvm -> "mvm"
  | Vfu -> "vfu"
  | Sfu -> "sfu"
  | Lut -> "lut"
  | Rf -> "rf"
  | Xbar_reg -> "xbar-reg"
  | Fetch -> "fetch"
  | Smem -> "smem"
  | Bus -> "bus"
  | Attr -> "attr"
  | Fifo -> "fifo"
  | Noc -> "noc"
  | Offchip -> "offchip"
  | Static -> "static"

let index = function
  | Mvm -> 0
  | Vfu -> 1
  | Sfu -> 2
  | Lut -> 3
  | Rf -> 4
  | Xbar_reg -> 5
  | Fetch -> 6
  | Smem -> 7
  | Bus -> 8
  | Attr -> 9
  | Fifo -> 10
  | Noc -> 11
  | Offchip -> 12
  | Static -> 13

let num_categories = 14

(* Per-event dynamic energies in pJ, derived from the Table 3 power budgets
   at 1 GHz full utilization (power_mW / freq_GHz = pJ/cycle) and the NoC /
   off-chip link models of Section 6.1. *)
let per_event_pj (c : Config.t) = function
  | Mvm -> Scaling.mvm_energy_pj c
  | Vfu -> 1.9
  | Sfu -> 0.1
  | Lut -> 1.0
  | Rf -> 0.5
  | Xbar_reg -> 0.4
  | Fetch -> 1.5
  | Smem -> 15.0
  | Bus -> 2.0
  | Attr -> 1.0
  | Fifo -> 2.0
  | Noc -> 12.0 (* per 16-bit word per hop; 32-bit flits at ~24 pJ/hop *)
  | Offchip -> 320.0 (* 20 pJ/bit chip-to-chip *)
  | Static -> 0.0

type t = {
  cfg : Config.t;
  pj : float array; (* [per_event_pj cfg] by category index *)
  counts : int array;
  energies : float array;
  (* Opt-in per-tile attribution (the profiling layer). Row [i] tracks
     tile [i]; one extra final row collects unattributed events (anything
     recorded outside a tile scope). Empty arrays = attribution detached;
     the global accumulators above are maintained with exactly the same
     float operations either way, so totals are bit-identical whether or
     not a profiler is attached. *)
  mutable tile_counts : int array array;
  mutable tile_energies : float array array;
  mutable scope : int;
}

let create cfg =
  {
    cfg;
    pj = Array.of_list (List.map (per_event_pj cfg) all_categories);
    counts = Array.make num_categories 0;
    energies = Array.make num_categories 0.0;
    tile_counts = [||];
    tile_energies = [||];
    scope = -1;
  }

let config t = t.cfg

let enable_attribution t ~num_tiles =
  if num_tiles < 0 then invalid_arg "Energy.enable_attribution";
  t.tile_counts <- Array.init (num_tiles + 1) (fun _ -> Array.make num_categories 0);
  t.tile_energies <-
    Array.init (num_tiles + 1) (fun _ -> Array.make num_categories 0.0);
  t.scope <- -1

let disable_attribution t =
  t.tile_counts <- [||];
  t.tile_energies <- [||];
  t.scope <- -1

let attribution_enabled t = Array.length t.tile_counts > 0
let attributed_tiles t = max 0 (Array.length t.tile_counts - 1)
let set_scope t tile = t.scope <- tile

let[@inline] add t cat n =
  let i = index cat in
  t.counts.(i) <- t.counts.(i) + n;
  let pj = Float.of_int n *. t.pj.(i) in
  t.energies.(i) <- t.energies.(i) +. pj;
  let rows = Array.length t.tile_counts in
  if rows > 0 then begin
    let r = if t.scope >= 0 && t.scope < rows - 1 then t.scope else rows - 1 in
    t.tile_counts.(r).(i) <- t.tile_counts.(r).(i) + n;
    t.tile_energies.(r).(i) <- t.tile_energies.(r).(i) +. pj
  end

(* [add] inlined per event: the simulator records every retired
   instruction's charges through here. *)
let rec charge t = function
  | [] -> ()
  | (cat, n) :: rest ->
      add t cat n;
      charge t rest

let add_pj t cat pj =
  let i = index cat in
  t.energies.(i) <- t.energies.(i) +. pj

let attribute_pj t ~tile cat pj =
  let rows = Array.length t.tile_energies in
  if rows > 0 then begin
    let r = if tile >= 0 && tile < rows - 1 then tile else rows - 1 in
    t.tile_energies.(r).(index cat) <- t.tile_energies.(r).(index cat) +. pj
  end

(* Static share of a tile: 20% of its power budget is charged for the time
   the workload occupies it regardless of activity. *)
let static_fraction = 0.2

let add_static t ~tiles ~cycles =
  let tile_pw_mw = Table3.tile_power_mw t.cfg in
  let pj_per_cycle_per_tile = tile_pw_mw *. static_fraction /. t.cfg.frequency_ghz in
  add_pj t Static (Float.of_int tiles *. cycles *. pj_per_cycle_per_tile)

let static_tile_pj cfg ~cycles =
  let tile_pw_mw = Table3.tile_power_mw cfg in
  cycles *. (tile_pw_mw *. static_fraction /. cfg.frequency_ghz)

let count t cat = t.counts.(index cat)
let energy_pj t cat = t.energies.(index cat)
let total_pj t = Array.fold_left ( +. ) 0.0 t.energies
let total_uj t = total_pj t /. 1.0e6

let row t tile =
  let rows = Array.length t.tile_counts in
  if rows = 0 then invalid_arg "Energy: attribution not enabled";
  if tile >= 0 && tile < rows - 1 then tile else rows - 1

let tile_count t ~tile cat = t.tile_counts.(row t tile).(index cat)
let tile_energy_pj t ~tile cat = t.tile_energies.(row t tile).(index cat)
let tile_total_pj t ~tile =
  Array.fold_left ( +. ) 0.0 t.tile_energies.(row t tile)

let unattributed_total_pj t = tile_total_pj t ~tile:(-1)

let attributed_total_pj t =
  Array.fold_left (fun acc r -> acc +. Array.fold_left ( +. ) 0.0 r) 0.0
    t.tile_energies

let tile_breakdown t ~tile =
  let r = row t tile in
  all_categories
  |> List.filter_map (fun cat ->
         let e = t.tile_energies.(r).(index cat) in
         if e > 0.0 then Some (cat, e) else None)
  |> List.sort (fun (_, a) (_, b) -> Float.compare b a)

let merge_into ~dst ~src =
  for i = 0 to num_categories - 1 do
    dst.counts.(i) <- dst.counts.(i) + src.counts.(i);
    dst.energies.(i) <- dst.energies.(i) +. src.energies.(i)
  done;
  (* Attribution rows merge only between ledgers of the same shape;
     otherwise the per-tile view of [dst] is left as is (the global
     accumulators above always merge). *)
  if
    Array.length dst.tile_counts > 0
    && Array.length dst.tile_counts = Array.length src.tile_counts
  then
    for r = 0 to Array.length dst.tile_counts - 1 do
      for i = 0 to num_categories - 1 do
        dst.tile_counts.(r).(i) <- dst.tile_counts.(r).(i) + src.tile_counts.(r).(i);
        dst.tile_energies.(r).(i) <-
          dst.tile_energies.(r).(i) +. src.tile_energies.(r).(i)
      done
    done

let breakdown t =
  all_categories
  |> List.filter_map (fun cat ->
         let e = energy_pj t cat in
         if e > 0.0 then Some (cat, e) else None)
  |> List.sort (fun (_, a) (_, b) -> Float.compare b a)

let pp fmt t =
  Format.fprintf fmt "@[<v>total %.3f uJ@," (total_uj t);
  List.iter
    (fun (cat, e) ->
      Format.fprintf fmt "  %-9s %12.1f pJ (%d events)@," (category_name cat) e
        (count t cat))
    (breakdown t);
  Format.fprintf fmt "@]"
