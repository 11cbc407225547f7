(* Interval (value-range) analysis over the 16-bit fixed-point datapath.

   An abstract interpretation built on {!Absint}: every vector register
   word and scalar register carries an interval of raw fixed-point
   values, propagated through ALU ops (with the exact VFU rounding and
   clamping semantics), activation-function LUTs (monotone, so endpoint
   evaluation is exact on intervals) and MVMs (bounding the dot product
   with the actual programmed crossbar weights). Shared memory is
   modelled as a flow-insensitive per-word interval map that stores
   join into; tile send/receive channels forward intervals between
   tiles. A core stream is solved again only when a word it loaded has
   grown since its last solve began, until no stream is stale; each
   stream's last solve therefore saw the final map, and the diagnostics
   are the ones that solve's transfers recorded.

   Diagnostics: [W-SAT] where some execution may clamp, [E-OVERFLOW]
   where every execution clamps, [I-RANGE] inferred per-register ranges
   (opt-in dump). *)

module Instr = Puma_isa.Instr
module Operand = Puma_isa.Operand
module Program = Puma_isa.Program
module Fixed = Puma_util.Fixed
module Bset = Absint.Bset

(* ---- Interval primitives. ---- *)

(* Scalar registers are plain OCaml ints in the simulator; [sinf] is the
   "unbounded" sentinel the widening operator jumps to (any bound at or
   beyond it means "unknown"). *)
let sinf = 1 lsl 40
let clamp_s v = if v < -sinf then -sinf else if v > sinf then sinf else v

let vlo_top = Fixed.min_raw
let vhi_top = Fixed.max_raw
let sat_raw v = if v < vlo_top then vlo_top else if v > vhi_top then vhi_top else v

(* What the latest transfer at one pc found: some execution may clamp
   ([possible]), every execution clamps ([guaranteed]). *)
type flags = {
  mutable possible : bool;
  mutable guaranteed : bool;
  mutable what : string;
}

let no_flags () = { possible = false; guaranteed = false; what = "" }

(* ---- Abstract state: one interval per combined-space register. ---- *)

type state = { lo : int array; hi : int array }

let copy_state s = { lo = Array.copy s.lo; hi = Array.copy s.hi }

let equal_state a b =
  let n = Array.length a.lo in
  let rec go i =
    i >= n || (a.lo.(i) = b.lo.(i) && a.hi.(i) = b.hi.(i) && go (i + 1))
  in
  go 0

let join_state a b =
  for i = 0 to Array.length a.lo - 1 do
    if b.lo.(i) < a.lo.(i) then a.lo.(i) <- b.lo.(i);
    if b.hi.(i) > a.hi.(i) then a.hi.(i) <- b.hi.(i)
  done;
  a

let widen_state old cand =
  for i = 0 to Array.length cand.lo - 1 do
    if cand.lo.(i) < old.lo.(i) then cand.lo.(i) <- -sinf;
    if cand.hi.(i) > old.hi.(i) then cand.hi.(i) <- sinf
  done;
  cand

module Solver = Absint.Make (struct
  type nonrec state = state

  let copy = copy_state
  let equal = equal_state
  let join = join_state
  let widen = widen_state
end)

(* ---- Per-core crossbar weight images. ---- *)

(* The program's image, and its per-row sums of positive and of negative
   weights, built on first use (only uniform inputs need them). *)
type wimg = { w : string; sums : (int array * int array) Lazy.t }

(* Weight signs are data, so the per-weight loops here split each raw
   with a sign mask ([raw asr 62] is -1 or 0) instead of branching, and
   read the image directly rather than through out-of-line helpers.
   [raw - ((raw + max_raw) asr 62)] is the differential-pair clamp of
   -32768 to -32767 ({!Fixed.clamp_image}), folded into each pass so the
   crossbar's image is never built. *)
let row_sums dim img =
  let pos = Array.make dim 0 and neg = Array.make dim 0 in
  let max_raw = Fixed.max_raw in
  for i = 0 to dim - 1 do
    let p = ref 0 and n = ref 0 in
    for j = 0 to dim - 1 do
      let raw = String.get_int16_ne img (2 * ((i * dim) + j)) in
      let raw = raw - ((raw + max_raw) asr 62) in
      let m = raw asr 62 in
      p := !p + (raw land lnot m);
      n := !n + (raw land m)
    done;
    pos.(i) <- !p;
    neg.(i) <- !n
  done;
  (pos, neg)

let wimg dim img = { w = img; sums = lazy (row_sums dim img) }

(* Exact bound of each row's dot product over the input box
   [inl, inh], before rounding and saturation. *)
let mvm_bound dim w inl inh out_lo out_hi =
  let max_raw = Fixed.max_raw in
  for i = 0 to dim - 1 do
    let base = 2 * i * dim in
    let alo = ref 0 and ahi = ref 0 in
    for j = 0 to dim - 1 do
      let wij = String.get_int16_ne w (base + (2 * j)) in
      let wij = wij - ((wij + max_raw) asr 62) in
      let m = wij asr 62 in
      let wp = wij land lnot m and wn = wij land m in
      alo := !alo + (wp * inl.(j)) + (wn * inh.(j));
      ahi := !ahi + (wp * inh.(j)) + (wn * inl.(j))
    done;
    out_lo.(i) <- !alo;
    out_hi.(i) <- !ahi
  done

let same (a : int array) b =
  let rec go i = i < 0 || (a.(i) = b.(i) && go (i - 1)) in
  go (Array.length a - 1)

(* A non-uniform MVM's last bound, keyed by its input intervals. *)
type memo = {
  m_inl : int array;
  m_inh : int array;
  m_lo : int array;
  m_hi : int array;
}

(* One core stream with its latest solve. [reads] holds the shared-memory
   words that solve loaded (static addresses only: other loads read top)
   and [start] the clock value at which it began. [flags.(pc)] is what
   its transfer at [pc] found, and [post.(pc)] the state after it (kept
   only for [keep_states] or [dump_ranges]); the solver's last visit of
   a pc is from its block's final state, so both describe the solution. *)
type stream = {
  tile : int;
  core : int;
  code : Instr.t array;
  cfg : Cfg.t;
  transfer : pc:int -> state -> state;
  reads : int list ref;
  mutable start : int;
  flags : flags array;
  post : state option array;
}

(* ---- The analysis proper. ---- *)

type t = {
  diags : Diag.t list;
  interval : tile:int -> core:int -> pc:int -> reg:int -> (int * int) option;
      (** Post-instruction interval of a combined-space register index
          (only populated when states were kept). *)
}

let run ?(input_range = (Fixed.min_raw, Fixed.max_raw)) ?(dump_ranges = false)
    ?(keep_states = false) (p : Program.t) =
  let config = p.Program.config in
  let layout = Operand.layout config in
  let dim = layout.Operand.mvmu_dim in
  let total = layout.Operand.total in
  let width = total + Operand.num_scalar_regs in
  let num_mvmus = Operand.size_of layout Operand.Xbar_in / dim in
  let ntiles = Array.length p.Program.tiles in
  (* Shared-memory interval map, one pair of arrays per tile sized to its
     footprint ({!Program.footprint}: no access reaches past it); lo > hi
     marks words no static write reaches (loads of those read as top:
     at runtime they block on the attribute protocol instead of yielding
     a value, so any interval is sound). [stamp] holds the clock at each
     word's latest growth. *)
  let footprint = Program.footprint p in
  let per_tile v = Array.init ntiles (fun t -> Array.make (footprint t) v) in
  let mlo = per_tile 1 and mhi = per_tile 0 in
  let stamp = per_tile 0 in
  let clock = ref 0 in
  let map_dirty = ref false in
  let grow t a =
    map_dirty := true;
    stamp.(t).(a) <- !clock
  in
  let map_join t a lo hi =
    let l = mlo.(t) and h = mhi.(t) in
    if a >= 0 && a < Array.length l then begin
      if l.(a) > h.(a) then begin
        l.(a) <- lo;
        h.(a) <- hi;
        grow t a
      end
      else begin
        if lo < l.(a) then begin
          l.(a) <- lo;
          grow t a
        end;
        if hi > h.(a) then begin
          h.(a) <- hi;
          grow t a
        end
      end
    end
  in
  let map_read ~note t a =
    let l = mlo.(t) and h = mhi.(t) in
    if a >= 0 && a < Array.length l then begin
      note a;
      if l.(a) <= h.(a) then (l.(a), h.(a)) else (vlo_top, vhi_top)
    end
    else (vlo_top, vhi_top)
  in
  (* Host-visible bindings seed the map: inputs with the caller-supplied
     range, constants with their exact preloaded values. *)
  let ilo, ihi = input_range in
  List.iter
    (fun (b : Program.io_binding) ->
      if b.tile >= 0 && b.tile < ntiles then
        for k = 0 to b.length - 1 do
          map_join b.tile (b.mem_addr + k) ilo ihi
        done)
    p.Program.inputs;
  List.iter
    (fun ((b : Program.io_binding), raw) ->
      if b.tile >= 0 && b.tile < ntiles then
        Array.iteri (fun k v -> map_join b.tile (b.mem_addr + k) v v) raw)
    p.Program.constants;
  map_dirty := false;
  (* Per-(tile, core, mvmu) weight images. *)
  let images =
    Array.init ntiles (fun _ ->
        Array.make (config.Puma_hwmodel.Config.cores_per_tile * num_mvmus) None)
  in
  Array.iteri
    (fun t (tp : Program.tile_program) ->
      List.iter
        (fun (img : Program.mvmu_image) ->
          if
            img.core_index >= 0
            && img.core_index < config.Puma_hwmodel.Config.cores_per_tile
            && img.mvmu_index >= 0
            && img.mvmu_index < num_mvmus
            && String.length img.image = 2 * dim * dim
          then
            images.(t).((img.core_index * num_mvmus) + img.mvmu_index) <-
              Some (wimg dim img.image))
        tp.Program.mvmu_images)
    p.Program.tiles;
  (* ---- Transfer function for one core stream. ---- *)
  let keep = keep_states || dump_ranges in
  let cur_flags = ref (no_flags ()) in
  let flag_possible what =
    let f = !cur_flags in
    f.possible <- true;
    if f.what = "" then f.what <- what
  in
  let flag_guaranteed what =
    let f = !cur_flags in
    f.possible <- true;
    f.guaranteed <- true;
    f.what <- what
  in
  (* Clamp an exact (unsaturated) result interval to the representable
     range, recording whether some/all of it is cut off. *)
  let sat what lo hi =
    if lo < vlo_top || hi > vhi_top then begin
      if hi < vlo_top || lo > vhi_top then flag_guaranteed what
      else flag_possible what
    end;
    (sat_raw lo, sat_raw hi)
  in
  let lut_op op l h =
    (* The LUT samples a monotone non-decreasing function, so endpoint
       evaluation is exact on intervals; table values are in range by
       construction. *)
    assert (Instr.alu_op_is_monotone op);
    ( Fixed.to_raw (Puma_arch.Rom_lut.eval op (Fixed.of_raw l)),
      Fixed.to_raw (Puma_arch.Rom_lut.eval op (Fixed.of_raw h)) )
  in
  (* Binary VFU op on saturated input intervals (the VFU reads operands
     through [Fixed.of_raw], which clamps). *)
  let vfu_binop op l1 h1 l2 h2 =
    let name = Instr.alu_op_name op in
    match (op : Instr.alu_op) with
    | Add -> sat name (l1 + l2) (h1 + h2)
    | Sub -> sat name (l1 - h2) (h1 - l2)
    | Mul ->
        let a = l1 * l2 and b = l1 * h2 and c = h1 * l2 and d = h1 * h2 in
        let pmin = min (min a b) (min c d) and pmax = max (max a b) (max c d) in
        sat name (Fixed.round_scale pmin) (Fixed.round_scale pmax)
    | Div ->
        if l2 <= 0 && h2 >= 0 then
          if l2 = 0 && h2 = 0 then begin
            (* Division by zero saturates to the sign of the dividend. *)
            flag_guaranteed "div by zero";
            let lo = if l1 < 0 then vlo_top else vhi_top in
            let hi = if h1 >= 0 then vhi_top else vlo_top in
            (min lo hi, max lo hi)
          end
          else begin
            flag_possible "div";
            (vlo_top, vhi_top)
          end
        else begin
          (* Sign-definite divisor: the quotient is monotone in each
             argument over the box, so corners bound it. *)
          let q a b = (a lsl Fixed.frac_bits) / b in
          let a = q l1 l2 and b = q l1 h2 and c = q h1 l2 and d = q h1 h2 in
          sat name (min (min a b) (min c d)) (max (max a b) (max c d))
        end
    | Shl ->
        let amt v =
          let n = v asr Fixed.frac_bits in
          if n < 0 then 0 else if n > 15 then 15 else n
        in
        let nlo = amt l2 and nhi = amt h2 in
        let a = l1 lsl nlo and b = l1 lsl nhi in
        let c = h1 lsl nlo and d = h1 lsl nhi in
        sat name (min (min a b) (min c d)) (max (max a b) (max c d))
    | Shr ->
        let amt v =
          let n = v asr Fixed.frac_bits in
          if n < 0 then 0 else if n > 15 then 15 else n
        in
        let nlo = amt l2 and nhi = amt h2 in
        let a = l1 asr nlo and b = l1 asr nhi in
        let c = h1 asr nlo and d = h1 asr nhi in
        (min (min a b) (min c d), max (max a b) (max c d))
    | And -> if l1 >= 0 && l2 >= 0 then (0, min h1 h2) else (vlo_top, vhi_top)
    | Or ->
        if l1 >= 0 && l2 >= 0 then (max l1 l2, vhi_top) else (vlo_top, vhi_top)
    | Min -> (min l1 l2, min h1 h2)
    | Max -> (max l1 l2, max h1 h2)
    | Invert | Relu | Sigmoid | Tanh | Log | Exp | Rand | Subsample ->
        (vlo_top, vhi_top)
  in
  let vfu_unop op l h =
    match (op : Instr.alu_op) with
    | Invert -> (-h - 1, -l - 1)
    | Relu -> (max 0 l, max 0 h)
    | Sigmoid | Tanh | Log | Exp -> lut_op op l h
    | Rand -> (0, Fixed.to_raw Fixed.one)
    | Add | Sub | Mul | Div | Shl | Shr | And | Or | Subsample | Min | Max ->
        (vlo_top, vhi_top)
  in
  (* Read a register lane as the VFU sees it (clamped). *)
  let read_sat (s : state) i = (sat_raw s.lo.(i), sat_raw s.hi.(i)) in
  let in_reg i = i >= 0 && i < total in
  let in_sreg s = s >= 0 && s < Operand.num_scalar_regs in
  let sreg_interval (st : state) s =
    if in_sreg s then (st.lo.(total + s), st.hi.(total + s)) else (-sinf, sinf)
  in
  let addr_interval st = function
    | Instr.Imm_addr a -> (a, a)
    | Instr.Sreg_addr s -> sreg_interval st s
  in
  let make_transfer ~tile ~core ~note ~flags ~post (code : Instr.t array) =
    let imgs = images.(tile) in
    let img m = imgs.((core * num_mvmus) + m) in
    let inl = Array.make dim 0 and inh = Array.make dim 0 in
    let memo : (int, memo) Hashtbl.t = Hashtbl.create 16 in
    fun ~pc (st : state) ->
      flags.(pc) <- no_flags ();
      cur_flags := flags.(pc);
      (match code.(pc) with
      | Instr.Halt | Jmp _ | Brn _ | Send _ | Receive _ -> ()
      | Mvm { mask; filter = _; stride } ->
          for m = 0 to num_mvmus - 1 do
            if mask land (1 lsl m) <> 0 then begin
              let xin = Operand.xbar_in layout ~mvmu:m ~elem:0 in
              let xout = Operand.xbar_out layout ~mvmu:m ~elem:0 in
              match img m with
              | None ->
                  (* Unprogrammed crossbar: all-zero weights. *)
                  for i = 0 to dim - 1 do
                    st.lo.(xout + i) <- 0;
                    st.hi.(xout + i) <- 0
                  done
              | Some { w; sums } ->
                  for j = 0 to dim - 1 do
                    let src = xin + ((j + stride) mod dim) in
                    inl.(j) <- st.lo.(src);
                    inh.(j) <- st.hi.(src)
                  done;
                  let uniform = ref true in
                  for j = 1 to dim - 1 do
                    if inl.(j) <> inl.(0) || inh.(j) <> inh.(0) then
                      uniform := false
                  done;
                  let out_lo, out_hi =
                    if !uniform then begin
                      let l = inl.(0) and h = inh.(0) in
                      let pos, neg = Lazy.force sums in
                      ( Array.init dim (fun i -> (l * pos.(i)) + (h * neg.(i))),
                        Array.init dim (fun i -> (h * pos.(i)) + (l * neg.(i)))
                      )
                    end
                    else begin
                      (* The dim^2 bound, redone only when this MVM's input
                         intervals differ from its last visit's. *)
                      let key = (pc * num_mvmus) + m in
                      match Hashtbl.find_opt memo key with
                      | Some e when same e.m_inl inl && same e.m_inh inh ->
                          (e.m_lo, e.m_hi)
                      | _ ->
                          let out_lo = Array.make dim 0
                          and out_hi = Array.make dim 0 in
                          mvm_bound dim w inl inh out_lo out_hi;
                          Hashtbl.replace memo key
                            {
                              m_inl = Array.copy inl;
                              m_inh = Array.copy inh;
                              m_lo = out_lo;
                              m_hi = out_hi;
                            };
                          (out_lo, out_hi)
                    end
                  in
                  for i = 0 to dim - 1 do
                    let lo, hi =
                      sat "mvm accumulation"
                        (Fixed.round_scale out_lo.(i))
                        (Fixed.round_scale out_hi.(i))
                    in
                    st.lo.(xout + i) <- lo;
                    st.hi.(xout + i) <- hi
                  done
            end
          done
      | Alu { op; dest; src1; src2; vec_width } ->
          if op = Instr.Subsample then begin
            (* dest[k] = src1[2k]: a raw register copy. *)
            let tl = Array.make vec_width 0 and th = Array.make vec_width 0 in
            for k = 0 to vec_width - 1 do
              let s = src1 + (2 * k) in
              if in_reg s then begin
                tl.(k) <- st.lo.(s);
                th.(k) <- st.hi.(s)
              end
            done;
            for k = 0 to vec_width - 1 do
              if in_reg (dest + k) then begin
                st.lo.(dest + k) <- tl.(k);
                st.hi.(dest + k) <- th.(k)
              end
            done
          end
          else begin
            let tl = Array.make vec_width vlo_top
            and th = Array.make vec_width vhi_top in
            if Instr.alu_op_arity op = 1 then
              for k = 0 to vec_width - 1 do
                if in_reg (src1 + k) then begin
                  let l, h = read_sat st (src1 + k) in
                  let lo, hi = vfu_unop op l h in
                  tl.(k) <- lo;
                  th.(k) <- hi
                end
              done
            else
              for k = 0 to vec_width - 1 do
                if in_reg (src1 + k) && in_reg (src2 + k) then begin
                  let l1, h1 = read_sat st (src1 + k) in
                  let l2, h2 = read_sat st (src2 + k) in
                  let lo, hi = vfu_binop op l1 h1 l2 h2 in
                  tl.(k) <- lo;
                  th.(k) <- hi
                end
              done;
            for k = 0 to vec_width - 1 do
              if in_reg (dest + k) then begin
                st.lo.(dest + k) <- tl.(k);
                st.hi.(dest + k) <- th.(k)
              end
            done
          end
      | Alui { op; dest; src1; imm; vec_width } ->
          let i2 = sat_raw imm in
          for k = 0 to vec_width - 1 do
            if in_reg (src1 + k) && in_reg (dest + k) then begin
              let l1, h1 = read_sat st (src1 + k) in
              let lo, hi =
                if Instr.alu_op_arity op = 2 then vfu_binop op l1 h1 i2 i2
                else (vlo_top, vhi_top)
              in
              st.lo.(dest + k) <- lo;
              st.hi.(dest + k) <- hi
            end
          done
      | Alu_int { op; dest; src1; src2 } ->
          if in_sreg dest then begin
            let l1, h1 = sreg_interval st src1 in
            let l2, h2 = sreg_interval st src2 in
            let lo, hi =
              match (op : Instr.alu_int_op) with
              | Iadd -> (clamp_s (l1 + l2), clamp_s (h1 + h2))
              | Isub -> (clamp_s (l1 - h2), clamp_s (h1 - l2))
              | Ieq ->
                  if l1 = h1 && l2 = h2 && l1 = l2 then (1, 1)
                  else if h1 < l2 || h2 < l1 then (0, 0)
                  else (0, 1)
              | Ine ->
                  if l1 = h1 && l2 = h2 && l1 = l2 then (0, 0)
                  else if h1 < l2 || h2 < l1 then (1, 1)
                  else (0, 1)
              | Igt ->
                  if l1 > h2 then (1, 1)
                  else if h1 <= l2 then (0, 0)
                  else (0, 1)
            in
            st.lo.(total + dest) <- lo;
            st.hi.(total + dest) <- hi
          end
      | Set { dest; imm } ->
          if in_reg dest then begin
            st.lo.(dest) <- imm;
            st.hi.(dest) <- imm
          end
      | Set_sreg { dest; imm } ->
          if in_sreg dest then begin
            st.lo.(total + dest) <- clamp_s imm;
            st.hi.(total + dest) <- clamp_s imm
          end
      | Copy { dest; src; vec_width } ->
          let tl = Array.make vec_width vlo_top
          and th = Array.make vec_width vhi_top in
          for k = 0 to vec_width - 1 do
            if in_reg (src + k) then begin
              tl.(k) <- st.lo.(src + k);
              th.(k) <- st.hi.(src + k)
            end
          done;
          for k = 0 to vec_width - 1 do
            if in_reg (dest + k) then begin
              st.lo.(dest + k) <- tl.(k);
              st.hi.(dest + k) <- th.(k)
            end
          done
      | Load { dest; addr; vec_width } ->
          let al, ah = addr_interval st addr in
          for k = 0 to vec_width - 1 do
            if in_reg (dest + k) then begin
              let lo, hi =
                if al = ah then map_read ~note tile (al + k)
                else (vlo_top, vhi_top)
              in
              st.lo.(dest + k) <- lo;
              st.hi.(dest + k) <- hi
            end
          done
      | Store { src; addr; count = _; vec_width } ->
          let al, ah = addr_interval st addr in
          if al = ah then begin
            for k = 0 to vec_width - 1 do
              if in_reg (src + k) then
                map_join tile (al + k) st.lo.(src + k) st.hi.(src + k)
            done
          end
          else begin
            (* Dynamic store address: join the hull of the source lanes
               into every word (the address analysis cannot narrow it). *)
            let l = ref max_int and h = ref min_int in
            for k = 0 to vec_width - 1 do
              if in_reg (src + k) then begin
                l := min !l st.lo.(src + k);
                h := max !h st.hi.(src + k)
              end
            done;
            if !l <= !h then
              for a = 0 to Array.length mlo.(tile) - 1 do
                map_join tile a !l !h
              done
          end);
      if keep then post.(pc) <- Some (copy_state st);
      st
  in
  (* ---- Tile channel model: k-th class join of sends into receives. ---- *)
  let sends : (int * int, (int * int * int) list ref) Hashtbl.t =
    Hashtbl.create 16
  in
  Array.iteri
    (fun src (tp : Program.tile_program) ->
      Array.iter
        (fun i ->
          match i with
          | Instr.Send { mem_addr; fifo_id; target; vec_width } ->
              let key = (target, fifo_id) in
              let l =
                match Hashtbl.find_opt sends key with
                | Some l -> l
                | None ->
                    let l = ref [] in
                    Hashtbl.add sends key l;
                    l
              in
              l := (src, mem_addr, vec_width) :: !l
          | _ -> ())
        tp.Program.tile_code)
    p.Program.tiles;
  let process_channels () =
    Array.iteri
      (fun dst (tp : Program.tile_program) ->
        Array.iter
          (fun i ->
            match i with
            | Instr.Receive { mem_addr; fifo_id; count = _; vec_width } -> (
                match Hashtbl.find_opt sends (dst, fifo_id) with
                | None -> ()
                | Some l ->
                    List.iter
                      (fun (src, saddr, sw) ->
                        if sw = vec_width then
                          for k = 0 to vec_width - 1 do
                            if mlo.(src).(saddr + k) <= mhi.(src).(saddr + k)
                            then
                              map_join dst (mem_addr + k)
                                mlo.(src).(saddr + k)
                                mhi.(src).(saddr + k)
                          done
                        else begin
                          (* Width mismatch between paired endpoints is a
                             channel error; fall back to the hull. *)
                          let l = ref max_int and h = ref min_int in
                          for k = 0 to sw - 1 do
                            if
                              saddr + k < Array.length mlo.(src)
                              && mlo.(src).(saddr + k) <= mhi.(src).(saddr + k)
                            then begin
                              l := min !l mlo.(src).(saddr + k);
                              h := max !h mhi.(src).(saddr + k)
                            end
                          done;
                          if !l <= !h then
                            for k = 0 to vec_width - 1 do
                              map_join dst (mem_addr + k) !l !h
                            done
                        end)
                      !l)
            | _ -> ())
          tp.Program.tile_code)
      p.Program.tiles
  in
  (* ---- Global fixpoint over streams and the shared-memory map. ---- *)
  let entry () =
    let lo = Array.make width vlo_top and hi = Array.make width vhi_top in
    for s = 0 to Operand.num_scalar_regs - 1 do
      lo.(total + s) <- -sinf;
      hi.(total + s) <- sinf
    done;
    { lo; hi }
  in
  let streams =
    Array.to_list p.Program.tiles
    |> List.concat_map (fun (tp : Program.tile_program) ->
           let tile = tp.Program.tile_index in
           Array.to_list tp.Program.core_code
           |> List.mapi (fun core code -> (core, code))
           |> List.filter_map (fun (core, code) ->
                  if Array.length code = 0 then None
                  else begin
                    let reads = ref [] in
                    let note a = reads := a :: !reads in
                    let n = Array.length code in
                    let flags = Array.make n (no_flags ()) in
                    let post = Array.make (if keep then n else 0) None in
                    Some
                      {
                        tile;
                        core;
                        code;
                        cfg = Cfg.build code;
                        transfer =
                          make_transfer ~tile ~core ~note ~flags ~post code;
                        reads;
                        start = 0;
                        flags;
                        post;
                      }
                  end))
  in
  (* Each solve starts a new clock tick. A stream is stale when a word
     its latest solve loaded has grown since that solve began (stamp at
     or after its start, its own stores included); solving a stream that
     is not stale would repeat its last solve exactly. *)
  let solve s =
    incr clock;
    s.start <- !clock;
    s.reads := [];
    ignore (Solver.solve ~entry ~transfer:s.transfer s.cfg)
  in
  let stale s =
    let st = stamp.(s.tile) in
    List.exists (fun a -> st.(a) >= s.start) !(s.reads)
  in
  (* One sweep: every stream in order that is stale when reached (all of
     them on the first), then the channels. Only solves that would
     repeat themselves exactly are skipped, so the map and the states
     are those of solving every stream in every sweep. *)
  let sweep ~all =
    map_dirty := false;
    List.iter (fun s -> if all || stale s then solve s) streams;
    process_channels ()
  in
  let widen_map () =
    for t = 0 to ntiles - 1 do
      Array.fill mlo.(t) 0 (Array.length mlo.(t)) vlo_top;
      Array.fill mhi.(t) 0 (Array.length mhi.(t)) vhi_top
    done
  in
  let max_passes = 12 in
  let rec fixpoint n =
    sweep ~all:(n = 0);
    if !map_dirty then
      if n + 1 < max_passes then fixpoint (n + 1)
      else begin
        (* Did not converge: widen the whole map to top and solve every
           stream again. Only out-of-range immediates and widened bounds
           can still grow it, finitely many values, so the stale
           re-solves end. *)
        widen_map ();
        sweep ~all:true;
        while !map_dirty do
          sweep ~all:false
        done
      end
  in
  fixpoint 0;
  (* ---- Report from each stream's last solve. ---- *)
  let diags = ref [] in
  List.iter
    (fun { tile; core; code; flags; post; _ } ->
      Array.iteri
        (fun pc f ->
          if f.guaranteed then
            diags :=
              Diag.error ~code:"E-OVERFLOW" ~tile ~core ~pc
                "%s saturates on every execution: the inferred result range \
                 lies entirely outside the representable fixed-point range"
                f.what
              :: !diags
          else if f.possible then
            diags :=
              Diag.warning ~code:"W-SAT" ~tile ~core ~pc
                "%s may saturate: part of the inferred result range falls \
                 outside the representable fixed-point range"
                f.what
              :: !diags)
        flags;
      if dump_ranges then begin
        (* The hull of every post-instruction interval of each register
           some reachable instruction defines. *)
        let sum_lo = Array.make width max_int
        and sum_hi = Array.make width min_int in
        let defined = Bset.create width in
        Array.iteri
          (fun pc ->
            Option.iter (fun st ->
                List.iter
                  (fun (base, w) ->
                    let lo = max 0 base and hi = min width (base + w) in
                    for k = lo to hi - 1 do
                      Bset.set defined k;
                      if st.lo.(k) < sum_lo.(k) then sum_lo.(k) <- st.lo.(k);
                      if st.hi.(k) > sum_hi.(k) then sum_hi.(k) <- st.hi.(k)
                    done)
                  (Regflow.effects layout code.(pc)).defs))
          post;
        (* Group maximal runs of consecutively-indexed registers with the
           same interval into one info line. *)
        let render_bound v ~is_sreg =
          if v <= -sinf then "-inf"
          else if v >= sinf then "+inf"
          else if is_sreg then string_of_int v
          else Printf.sprintf "%.4f" (Fixed.to_float (Fixed.of_raw v))
        in
        let k = ref 0 in
        while !k < width do
          if Bset.get defined !k then begin
            let e = ref !k in
            (* Runs never straddle the vector/scalar boundary. *)
            while
              !e + 1 < width
              && (!e + 1 < total) = (!k < total)
              && Bset.get defined (!e + 1)
              && sum_lo.(!e + 1) = sum_lo.(!k)
              && sum_hi.(!e + 1) = sum_hi.(!k)
            do
              incr e
            done;
            let is_sreg = !k >= total in
            let name =
              if !e = !k then Regflow.reg_name layout !k
              else
                Printf.sprintf "%s..%s"
                  (Regflow.reg_name layout !k)
                  (Regflow.reg_name layout !e)
            in
            diags :=
              Diag.info ~code:"I-RANGE" ~tile ~core "%s in [%s, %s]" name
                (render_bound sum_lo.(!k) ~is_sreg)
                (render_bound sum_hi.(!k) ~is_sreg)
              :: !diags;
            k := !e + 1
          end
          else incr k
        done
      end)
    streams;
  let interval ~tile ~core ~pc ~reg =
    match List.find_opt (fun s -> s.tile = tile && s.core = core) streams with
    | Some { post; _ }
      when keep_states && pc >= 0 && pc < Array.length post && reg >= 0
           && reg < width ->
        Option.map (fun st -> (st.lo.(reg), st.hi.(reg))) post.(pc)
    | _ -> None
  in
  { diags = List.rev !diags; interval }

let analyze ?input_range ?dump_ranges (p : Program.t) =
  (run ?input_range ?dump_ranges p).diags
