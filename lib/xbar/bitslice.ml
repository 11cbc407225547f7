module Fixed = Puma_util.Fixed
module Tensor = Puma_util.Tensor

(* The materialized device stacks of a noisy or faulted stack. *)
type physical = {
  (* Range scaling: stored conductances hold [raw lsl scale_shift] so the
     matrix spans the full device range (maximizing noise margin, as in
     ISAAC's per-matrix mapping); the digital shift-and-add undoes it. *)
  scale_shift : int;
  (* Fault-aware line remapping: logical line k lives on physical line
     perm.(k). None = identity routing. *)
  perms : Fault.perms option;
  (* Static ADC conversion offsets per (slice, physical output line), in
     LSBs; [||] when the fault model has none. *)
  adc_offset : int array array;
  (* Per-polarity slice stacks. *)
  pos : Crossbar.t array;
  neg : Crossbar.t array;
  (* Precomputed shift-and-add weight per slice (2^slice-offset). *)
  slice_weight : int array;
  (* Reusable float scratch for the noisy MVM path (input vector and the
     per-slice positive/negative column sums), so a steady-state inference
     allocates only its digital output vector. *)
  nf_x : float array;
  nf_p : float array;
  nf_n : float array;
}

type t = {
  dim : int;
  (* Quantized signed raw weights, row-major, one native-endian int16 per
     weight (2 * dim * dim bytes); the exact-path operand. Usually the
     program's own image, shared with every other stack programmed from
     it; a private clamped copy when the image holds -32768. Empty for an
     unprogrammed stack, whose weights are all zero. *)
  image : string;
  (* Present only with write noise or faults. *)
  physical : physical option;
}

(* The exact kernel, in [bitslice_stubs.c]: [out.(i)] receives the
   integer dot product of image row [i] with [x] (all zeros for an empty
   image), wrapping like OCaml [int] arithmetic when oversized inputs
   overflow. [x] and [out] must have length [dim]. *)
external mvm_image : string -> int array -> int array -> unit
  = "puma_xbar_mvm_exact"
[@@noalloc]

let magnitude_parts raw =
  (* Differential pair: raw = pos - neg with pos, neg >= 0. The single
     non-representable magnitude -32768 clamps to -32767. *)
  if raw >= 0 then (raw, 0)
  else
    let m = min (-raw) Fixed.max_raw in
    (0, m)

(* Post-programming fault application: drift relaxes every stored level
   toward the device mid-level, then stuck devices pin to their extreme
   conductances, then dead lines zero out (an open line contributes no
   current). Order matters: a stuck or dead device does not drift. *)
let apply_instance ~dim ~pos ~neg (f : Fault.instance) =
  if f.dim <> dim then
    invalid_arg
      (Printf.sprintf "Bitslice: fault instance dim %d does not match stack %d"
         f.dim dim);
  let each g =
    Array.iter g pos;
    Array.iter g neg
  in
  if f.drift_factor < 1.0 then
    each (fun xb ->
        let mid = Float.of_int (Device.max_level (Crossbar.device xb)) /. 2.0 in
        for i = 0 to dim - 1 do
          for j = 0 to dim - 1 do
            let v = Crossbar.level xb i j in
            Crossbar.force xb i j (mid +. ((v -. mid) *. f.drift_factor))
          done
        done);
  List.iter
    (fun (s : Fault.stuck) ->
      let stack = if s.negative then neg else pos in
      let xb = stack.(s.slice) in
      let level =
        if s.on then Float.of_int (Device.max_level (Crossbar.device xb))
        else 0.0
      in
      Crossbar.force xb s.out_line s.in_line level)
    f.stuck;
  Array.iteri
    (fun j dead ->
      if dead then
        each (fun xb ->
            for i = 0 to dim - 1 do
              Crossbar.force xb i j 0.0
            done))
    f.dead_in;
  Array.iteri
    (fun i dead ->
      if dead then
        each (fun xb ->
            for j = 0 to dim - 1 do
              Crossbar.force xb i j 0.0
            done))
    f.dead_out

let of_image (c : Puma_hwmodel.Config.t) ?rng ?fault image =
  let dim = c.mvmu_dim in
  if String.length image <> 2 * dim * dim then
    invalid_arg
      (Printf.sprintf "Bitslice.of_image: image must be %d bytes (got %d)"
         (2 * dim * dim) (String.length image));
  let image = Fixed.clamp_image image in
  (* Physical slice stacks are materialized whenever an RNG (write noise)
     or a fault spec is supplied; without either the exact kernel is
     used. *)
  let physical =
    if Option.is_none rng && Option.is_none fault then None
    else begin
      let max_mag = ref 0 in
      for k = 0 to (dim * dim) - 1 do
        max_mag := max !max_mag (abs (Fixed.image_raw image k))
      done;
      let bits = c.bits_per_cell in
      let num_slices = Puma_hwmodel.Config.slices c in
      let perms =
        match fault with
        | Some { Fault.perms = Some p; _ } ->
            if Array.length p.out_perm <> dim || Array.length p.in_perm <> dim
            then invalid_arg "Bitslice.create: remap permutation length mismatch";
            Some p
        | _ -> None
      in
      let device = Device.create ~bits ~sigma:c.write_noise_sigma in
      let make_stack () =
        Array.init num_slices (fun _ -> Crossbar.create ~dim ~device)
      in
      let pos = make_stack () and neg = make_stack () in
      (* Spread the matrix over the full conductance range. *)
      let scale_shift =
        if !max_mag = 0 then 0
        else begin
          let rec go k =
            if !max_mag lsl (k + 1) <= Fixed.max_raw then go (k + 1) else k
          in
          go 0
        end
      in
      (* The 15 magnitude bits are grouped from the top down, so any
         partial group lands in the least-significant slice: high-order
         devices always use their full range (best noise margin where
         errors cost most). *)
      let low_bits =
        let r = 15 mod bits in
        if r = 0 then bits else r
      in
      let slice_offset s = if s = 0 then 0 else low_bits + ((s - 1) * bits) in
      let split value =
        Array.init num_slices (fun s ->
            let width = if s = 0 then low_bits else bits in
            (value lsr slice_offset s) land ((1 lsl width) - 1))
      in
      (* Logical line k is programmed onto physical line perm.(k); the MVM
         path routes through the same permutation, so in exact arithmetic
         a remapped stack is equivalent — only the physical placement (and
         therefore which faults land under live weights) changes. *)
      let out_line, in_line =
        match perms with
        | None -> (Fun.id, Fun.id)
        | Some p ->
            ((fun i -> p.Fault.out_perm.(i)), fun j -> p.Fault.in_perm.(j))
      in
      for i = 0 to dim - 1 do
        for j = 0 to dim - 1 do
          let raw = Fixed.image_raw image ((i * dim) + j) lsl scale_shift in
          let p, n = magnitude_parts raw in
          let pslices = split p and nslices = split n in
          let pi = out_line i and pj = in_line j in
          for s = 0 to num_slices - 1 do
            Crossbar.write pos.(s) ?rng pi pj pslices.(s);
            Crossbar.write neg.(s) ?rng pi pj nslices.(s)
          done
        done
      done;
      (match fault with
      | Some f -> apply_instance ~dim ~pos ~neg f.Fault.instance
      | None -> ());
      Some
        {
          scale_shift;
          perms;
          adc_offset =
            (match fault with
            | Some { Fault.instance = { adc_offset; _ }; _ } -> adc_offset
            | None -> [||]);
          pos;
          neg;
          slice_weight =
            Adc.shift_weights ~num_slices ~low_bits ~bits_per_cell:bits;
          nf_x = Array.make dim 0.0;
          nf_p = Array.make dim 0.0;
          nf_n = Array.make dim 0.0;
        }
    end
  in
  { dim; image; physical }

let create (c : Puma_hwmodel.Config.t) ?rng ?fault (m : Tensor.mat) =
  if m.Tensor.rows <> c.mvmu_dim || m.Tensor.cols <> c.mvmu_dim then
    invalid_arg "Bitslice.create: matrix must be dim x dim";
  of_image c ?rng ?fault (Fixed.image_of_mat m)

let zero (c : Puma_hwmodel.Config.t) =
  { dim = c.mvmu_dim; image = ""; physical = None }

let dim t = t.dim
let is_noisy t = Option.is_some t.physical

let mvm_raw_exact_into t x out =
  if Array.length x <> t.dim || Array.length out <> t.dim then
    invalid_arg "Bitslice.mvm_raw_exact_into: vector length must be dim";
  mvm_image t.image x out

(* Noisy-device path. The conversion chain itself is conservatively
   provisioned to be lossless (Section 3.2.1's no-accuracy-compromise
   claim; the [Dac]/[Adc] models and the exact-path equality test document
   that), so the analog impairments reduce to the programmed conductance
   levels plus the static per-column ADC conversion offset: each slice's
   column currents are accumulated with the stored (noisy/faulted) analog
   levels, digitized once per slice, and combined by shift-and-add.
   Inputs and outputs route through the fault-remap permutations when
   present. *)
let mvm_raw_noisy d p x =
  let xf = p.nf_x in
  (* The permutation covers every index, so the scatter (re)writes the
     whole scratch vector — no stale data survives between calls. *)
  (match p.perms with
  | None ->
      for j = 0 to d - 1 do
        xf.(j) <- Float.of_int x.(j)
      done
  | Some perm ->
      for j = 0 to d - 1 do
        xf.(perm.Fault.in_perm.(j)) <- Float.of_int x.(j)
      done);
  let accp = p.nf_p and accn = p.nf_n in
  let out = Array.make d 0 in
  for s = 0 to Array.length p.pos - 1 do
    let sw = p.slice_weight.(s) in
    Crossbar.mvm_acc_into p.pos.(s) xf accp;
    Crossbar.mvm_acc_into p.neg.(s) xf accn;
    let off = if p.adc_offset = [||] then [||] else p.adc_offset.(s) in
    for i = 0 to d - 1 do
      let phys =
        match p.perms with None -> i | Some perm -> perm.Fault.out_perm.(i)
      in
      let digital = Float.to_int (Float.round (accp.(phys) -. accn.(phys))) in
      let digital = if off = [||] then digital else digital + off.(phys) in
      out.(i) <- out.(i) + (digital * sw)
    done
  done;
  out

let mvm_raw t x =
  match t.physical with
  | None ->
      let out = Array.make t.dim 0 in
      mvm_raw_exact_into t x out;
      out
  | Some p ->
      assert (Array.length x = t.dim);
      let scaled = mvm_raw_noisy t.dim p x in
      (* Undo the range scaling with round-to-nearest. *)
      let k = p.scale_shift in
      if k = 0 then scaled
      else
        Array.map
          (fun v ->
            let half = 1 lsl (k - 1) in
            if v >= 0 then (v + half) asr k else -((-v + half) asr k))
          scaled
