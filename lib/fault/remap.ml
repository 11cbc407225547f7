module Fault = Puma_xbar.Fault
module Diag = Puma_analysis.Diag
module Program = Puma_isa.Program
module Fixed = Puma_util.Fixed
module Config = Puma_hwmodel.Config

type t = {
  plan : Fault.plan;
  diags : Diag.t list;
  total_faults : int;
  remapped_mvmus : int;
}

let errors t =
  List.length (List.filter (fun (d : Diag.t) -> d.severity = Diag.Error) t.diags)

let warnings t =
  List.length
    (List.filter (fun (d : Diag.t) -> d.severity = Diag.Warning) t.diags)

(* A dead line dominates any accumulation of stuck devices and ADC
   offsets on a healthy line. *)
let dead_score = 1_000_000

(* Physical badness per line. Output lines additionally accumulate the
   magnitude of their static ADC offsets (an offset cannot be healed, but
   it can be parked under a spare row whose output nobody reads). *)
let line_scores (inst : Fault.instance) =
  let dim = inst.dim in
  let out_score = Array.make dim 0 in
  let in_score = Array.make dim 0 in
  List.iter
    (fun (s : Fault.stuck) ->
      out_score.(s.out_line) <- out_score.(s.out_line) + 1;
      in_score.(s.in_line) <- in_score.(s.in_line) + 1)
    inst.stuck;
  Array.iteri
    (fun j d -> if d then in_score.(j) <- in_score.(j) + dead_score)
    inst.dead_in;
  Array.iteri
    (fun i d -> if d then out_score.(i) <- out_score.(i) + dead_score)
    inst.dead_out;
  Array.iter
    (fun per_line ->
      Array.iteri
        (fun i v -> out_score.(i) <- out_score.(i) + abs v)
        per_line)
    inst.adc_offset;
  (out_score, in_score)

(* Greedy assignment: logical lines sorted by ascending weight mass meet
   physical lines sorted by descending badness, so spares absorb the
   faultiest lines. Returns [None] when every physical line is healthy
   (identity routing is already optimal). *)
let assign ~scores ~masses =
  let dim = Array.length scores in
  if Array.for_all (fun s -> s = 0) scores then None
  else begin
    let phys = Array.init dim Fun.id in
    Array.sort
      (fun a b ->
        match compare scores.(b) scores.(a) with 0 -> compare a b | c -> c)
      phys;
    let logical = Array.init dim Fun.id in
    Array.sort
      (fun a b ->
        match Int.compare masses.(a) masses.(b) with
        | 0 -> compare a b
        | c -> c)
      logical;
    let perm = Array.make dim 0 in
    Array.iteri (fun k l -> perm.(l) <- phys.(k)) logical;
    Some perm
  end

(* Per-line weight mass in raws: the sum of |raw| over the line, so a
   weight that programs as 0 adds nothing. *)
let masses image dim =
  let row = Array.make dim 0 in
  let col = Array.make dim 0 in
  for i = 0 to dim - 1 do
    for j = 0 to dim - 1 do
      let v = abs (Fixed.image_raw image ((i * dim) + j)) in
      row.(i) <- row.(i) + v;
      col.(j) <- col.(j) + v
    done
  done;
  (row, col)

let build ?(remap = true) ~model ~seed (program : Program.t) =
  let plan = Fault.plan ~seed model in
  let config = program.config in
  let dim = config.Config.mvmu_dim in
  let slices = Config.slices config in
  let diags = ref [] in
  let total = ref 0 in
  let remapped = ref 0 in
  Array.iteri
    (fun ti (tp : Program.tile_program) ->
      List.iter
        (fun (img : Program.mvmu_image) ->
          let inst =
            Fault.realize_instance model ~seed ~tile:ti ~core:img.core_index
              ~mvmu:img.mvmu_index ~dim ~slices
          in
          total := !total + Fault.count inst;
          if remap && not (Fault.is_null inst) then begin
            let out_score, in_score = line_scores inst in
            let row_mass, col_mass = masses img.image dim in
            let out_perm =
              Option.value
                (assign ~scores:out_score ~masses:row_mass)
                ~default:(Fault.identity_perms ~dim).out_perm
            in
            let in_perm =
              Option.value
                (assign ~scores:in_score ~masses:col_mass)
                ~default:(Fault.identity_perms ~dim).in_perm
            in
            let perms = { Fault.out_perm; in_perm } in
            if not (Fault.is_identity perms) then begin
              incr remapped;
              Hashtbl.replace plan.Fault.remap
                (ti, img.core_index, img.mvmu_index)
                perms
            end;
            (* Capacity diagnostics from the final placement. *)
            let lost_out = ref 0 and lost_in = ref 0 in
            for i = 0 to dim - 1 do
              if row_mass.(i) > 0 && inst.dead_out.(out_perm.(i)) then
                incr lost_out
            done;
            for j = 0 to dim - 1 do
              if col_mass.(j) > 0 && inst.dead_in.(in_perm.(j)) then
                incr lost_in
            done;
            let spares a =
              Array.fold_left (fun n m -> if m = 0 then n + 1 else n) 0 a
            in
            if !lost_out > 0 then
              diags :=
                Diag.error ~code:"E-FAULT" ~tile:tp.tile_index
                  ~core:img.core_index
                  "mvmu %d: %d live output line(s) remain on dead columns \
                   (%d dead, %d spare rows) — those outputs are destroyed"
                  img.mvmu_index !lost_out
                  (Array.fold_left
                     (fun n d -> if d then n + 1 else n)
                     0 inst.dead_out)
                  (spares row_mass)
                :: !diags;
            if !lost_in > 0 then
              diags :=
                Diag.error ~code:"E-FAULT" ~tile:tp.tile_index
                  ~core:img.core_index
                  "mvmu %d: %d live input line(s) remain on dead rows (%d \
                   dead, %d spare columns) — their contributions are lost"
                  img.mvmu_index !lost_in
                  (Array.fold_left
                     (fun n d -> if d then n + 1 else n)
                     0 inst.dead_in)
                  (spares col_mass)
                :: !diags;
            (* Stuck devices still sitting under nonzero weights after
               the permutation. *)
            let inv a =
              let r = Array.make dim 0 in
              Array.iteri (fun k v -> r.(v) <- k) a;
              r
            in
            let inv_out = inv out_perm and inv_in = inv in_perm in
            let residual =
              List.fold_left
                (fun n (s : Fault.stuck) ->
                  let li = inv_out.(s.out_line) and lj = inv_in.(s.in_line) in
                  if
                    (not inst.dead_out.(s.out_line))
                    && (not inst.dead_in.(s.in_line))
                    && Fixed.image_raw img.image ((li * dim) + lj) <> 0
                  then n + 1
                  else n)
                0 inst.stuck
            in
            if residual > 0 then
              diags :=
                Diag.warning ~code:"W-FAULT" ~tile:tp.tile_index
                  ~core:img.core_index
                  "mvmu %d: %d stuck device(s) remain under nonzero weights \
                   after remapping (of %d stuck)"
                  img.mvmu_index residual
                  (List.length inst.stuck)
                :: !diags
          end)
        tp.mvmu_images)
    program.tiles;
  {
    plan;
    diags = List.sort Diag.compare !diags;
    total_faults = !total;
    remapped_mvmus = !remapped;
  }
