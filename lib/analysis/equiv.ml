module Instr = Puma_isa.Instr
module Program = Puma_isa.Program
module Operand = Puma_isa.Operand
module Fixed = Puma_util.Fixed
module Shared_mem = Puma_tile.Shared_mem

(* ---- The reference dataflow (built by Lgraph.to_reference) ---- *)

type rpiece = { src : int; src_off : int; piece_len : int; dst_off : int }

type rop =
  | R_input of { name : string; offset : int }
  | R_const of int array
  | R_mvm of { image : string; label : string }
  | R_alu of Instr.alu_op
  | R_alui of { op : Instr.alu_op; imm : int }
  | R_gather of rpiece array
  | R_output of { name : string; offset : int }

type rnode = { op : rop; preds : int array; len : int }

type dataflow = rnode array

type verdict = Proved | Refuted | Unknown

type result = {
  verdict : verdict;
  diags : Diag.t list;
  output_words : int;
  mismatched_words : int;
  mvm_apps : int;
  steps : int;
}

type execution = { trace : int array; finished : bool }

type run = {
  equiv : result option;
  ranges : Diag.t list;
  checks : Diag.t list;
  interval : tile:int -> core:int -> pc:int -> reg:int -> (int * int) option;
  executions : pos:int -> core:int option -> execution option;
}

(* ---- Hash-consed symbolic words ----

   Every value a register, shared-memory word or NoC packet word can hold
   is an interned id; structural equality of provenance DAGs is id
   equality. Copies (register moves, loads/stores, sends/receives) move
   ids around without interning anything, so the executor's cost is
   dominated by the instructions that actually compute. Each id carries
   the interval of raw values its word can take, computed once from its
   operands' intervals when it is interned ({!Range}). *)

type desc =
  | S_input of string * int  (* network input name, element index *)
  | S_const of int  (* raw 16-bit fixed-point word *)
  | S_init  (* a register no instruction has written yet *)
  | S_undef of int  (* fresh unknown: a Rand lane *)
  | S_vec of int array  (* an MVM argument vector, word ids *)
  | S_app of int * int  (* matrix id, argument S_vec id *)
  | S_elem of int * int  (* S_app id, output element *)
  | S_op1 of Instr.alu_op * int
  | S_op2 of Instr.alu_op * int * int

(* A dim x dim crossbar-block image, interned by its raws. [named] is set
   once a reference node has labelled it. *)
type mat_info = {
  mutable label : string;
  mutable named : bool;
  image : string;
  zero_col : bool array;
  zero_row : bool array;
}

(* Minimal growable array (no Dynarray dependency). *)
module Grow = struct
  type 'a t = { mutable data : 'a array; mutable len : int; dummy : 'a }

  let create ?(capacity = 64) dummy =
    { data = Array.make capacity dummy; len = 0; dummy }

  let push g x =
    if g.len = Array.length g.data then begin
      let d = Array.make (max 64 (2 * g.len)) g.dummy in
      Array.blit g.data 0 d 0 g.len;
      g.data <- d
    end;
    g.data.(g.len) <- x;
    g.len <- g.len + 1;
    g.len - 1

  let get g i = g.data.(i)
  let to_array g =
    if g.len = Array.length g.data then g.data else Array.sub g.data 0 g.len
end

(* Images keyed by content. Hashing samples about 64 raws, so a lookup
   reads the whole image only to confirm a match. *)
module Images = Hashtbl.Make (struct
  type t = string

  let equal = String.equal

  let hash s =
    let n = String.length s / 2 in
    let step = max 1 (n / 64) in
    let h = ref n and k = ref 0 in
    while !k < n do
      h := (!h * 31) + String.get_int16_ne s (2 * !k);
      k := !k + step
    done;
    !h land max_int
end)

type intern_state = {
  ids : (desc, int) Hashtbl.t;
  descs : desc Grow.t;
  taints : bool Grow.t;  (* does the word depend on an S_undef? *)
  lo : int Grow.t;
  hi : int Grow.t;
  flags : Range.flag Grow.t;
  mutable app : int;
  mutable app_lo : int array;
  mutable app_hi : int array;
      (* the latest new S_app id and each row's dot-product bound, before
         rounding: [apply_mvm] interns an application's elements right
         after the application itself *)
  mats : int Images.t;
  mat_infos : mat_info Grow.t;
  dim : int;
  input_range : int * int;
  ranges : bool;  (* compute intervals; off, every term gets [0, 0] *)
  mutable nonce : int;
  const0 : int;  (* set right after creation: intern (S_const 0) *)
}

let taint_of st = function
  | S_input _ | S_const _ | S_init -> false
  | S_undef _ -> true
  | S_vec ws -> Array.exists (fun w -> Grow.get st.taints w) ws
  | S_app (_, v) -> Grow.get st.taints v
  | S_elem (a, _) -> Grow.get st.taints a
  | S_op1 (_, a) -> Grow.get st.taints a
  | S_op2 (_, a, b) -> Grow.get st.taints a || Grow.get st.taints b

(* The MVM's exact bound over its argument words' intervals. *)
let app_bound st mat v =
  let dim = st.dim in
  let ws = match Grow.get st.descs v with S_vec ws -> ws | _ -> assert false in
  let out_lo = Array.make dim 0 and out_hi = Array.make dim 0 in
  Range.mvm_bound dim (Grow.get st.mat_infos mat).image
    (Array.map (Grow.get st.lo) ws)
    (Array.map (Grow.get st.hi) ws)
    out_lo out_hi;
  (out_lo, out_hi)

let bounds st d =
  let sat w = (Range.sat_raw (Grow.get st.lo w), Range.sat_raw (Grow.get st.hi w)) in
  match d with
  | S_input _ ->
      let lo, hi = st.input_range in
      (lo, hi, Range.Clean)
  | S_const r -> (r, r, Range.Clean)
  | S_init -> (Range.vlo_top, Range.vhi_top, Range.Clean)
  | S_undef _ -> (0, Fixed.to_raw Fixed.one, Range.Clean)
  | S_vec _ | S_app _ -> (0, 0, Range.Clean)
  | S_elem (a, i) ->
      assert (a = st.app);
      let lo = st.app_lo and hi = st.app_hi in
      Range.sat "mvm accumulation"
        (Fixed.round_scale lo.(i))
        (Fixed.round_scale hi.(i))
  | S_op1 (op, a) ->
      let l, h = sat a in
      let lo, hi = Range.unop op l h in
      (lo, hi, Range.Clean)
  | S_op2 (op, a, b) ->
      let l1, h1 = sat a and l2, h2 = sat b in
      Range.binop op l1 h1 l2 h2

let intern st d =
  match Hashtbl.find_opt st.ids d with
  | Some id -> id
  | None ->
      let lo, hi, flag =
        if not st.ranges then (0, 0, Range.Clean)
        else begin
          (match d with
          | S_app (mat, v) ->
              let lo, hi = app_bound st mat v in
              st.app <- st.descs.Grow.len;
              st.app_lo <- lo;
              st.app_hi <- hi
          | _ -> ());
          bounds st d
        end
      in
      let id = Grow.push st.descs d in
      ignore (Grow.push st.taints (taint_of st d));
      ignore (Grow.push st.lo lo);
      ignore (Grow.push st.hi hi);
      ignore (Grow.push st.flags flag);
      Hashtbl.add st.ids d id;
      id

let fresh_undef st =
  st.nonce <- st.nonce + 1;
  intern st (S_undef st.nonce)

(* Sized up front to the expected number of ids, so it rarely
   rehashes. *)
let intern_state ~size ~dim ~input_range ~ranges =
  let st =
    {
      ids = Hashtbl.create (max 64 size);
      descs = Grow.create (S_const 0);
      taints = Grow.create false;
      lo = Grow.create 0;
      hi = Grow.create 0;
      flags = Grow.create Range.Clean;
      app = -1;
      app_lo = [||];
      app_hi = [||];
      mats = Images.create 64;
      mat_infos =
        Grow.create
          {
            label = "";
            named = false;
            image = "";
            zero_col = [||];
            zero_row = [||];
          };
      dim;
      input_range;
      ranges;
      nonce = 0;
      const0 = 0;
    }
  in
  let z = intern st (S_const 0) in
  assert (z = 0);
  st

(* ---- Bail-out discipline ----

   [Bail] stops the run short: the program cannot be modelled soundly
   and the proof is [Unknown]. Refutations from output comparison are
   collected normally. *)

exception Bail of Diag.t

let bail ?tile ?core ?pc fmt =
  Printf.ksprintf
    (fun m ->
      raise (Bail (Diag.warning ~code:"W-EQUIV-UNKNOWN" ?tile ?core ?pc "%s" m)))
    fmt

(* Intern an image by content: the program's images and the reference's
   unify exactly when their raws agree (an image on the wrong MVMU does
   not), and content-equal blocks unify (the compiler may legitimately
   use either copy). The first reference label sticks, so reference names
   win over program-side placeholders. *)
let intern_image st ~reference ~label img =
  let dim = st.dim in
  match Images.find_opt st.mats img with
  | Some id ->
      let info = Grow.get st.mat_infos id in
      if reference && not info.named then begin
        info.label <- label;
        info.named <- true
      end;
      id
  | None ->
      if String.length img <> 2 * dim * dim then
        bail "MVM image %s is %d bytes, not %dx%d raws" label
          (String.length img) dim dim;
      (* OR the raws together per row and per column: one branch-free
         pass that reads the image directly. *)
      let col = Array.make dim 0 and zero_row = Array.make dim true in
      for i = 0 to dim - 1 do
        let row = ref 0 in
        for j = 0 to dim - 1 do
          let r = String.get_int16_ne img (2 * ((i * dim) + j)) in
          row := !row lor r;
          col.(j) <- col.(j) lor r
        done;
        zero_row.(i) <- !row = 0
      done;
      let zero_col = Array.map (fun c -> c = 0) col in
      let id =
        Grow.push st.mat_infos
          {
            label;
            named = reference;
            image = img;
            zero_col;
            zero_row;
          }
      in
      Images.add st.mats img id;
      id


(* The one shared MVM evaluator: both the reference dataflow and the
   program's Mvm instructions go through it, so canonicalization (words
   feeding all-zero columns contribute exactly 0 and are normalized away;
   all-zero rows produce exactly 0) is symmetric by construction. This is
   what makes the check insensitive to stale garbage left in XbarIn words
   beyond a block's live columns — while words under live columns still
   have to match. *)
let apply_mvm st ~mat (arg : int array) =
  let info = Grow.get st.mat_infos mat in
  let masked =
    Array.mapi (fun j w -> if info.zero_col.(j) then st.const0 else w) arg
  in
  let app = intern st (S_app (mat, intern st (S_vec masked))) in
  Array.init (Array.length info.zero_row) (fun i ->
      if info.zero_row.(i) then st.const0 else intern st (S_elem (app, i)))

(* ---- Rendering (diagnostic messages only; codes are the contract) ---- *)

let rec render st ~depth id =
  if depth <= 0 then "..."
  else
    match Grow.get st.descs id with
    | S_input (name, i) -> Printf.sprintf "%s[%d]" name i
    | S_const r -> Printf.sprintf "#%d" r
    | S_init -> "init"
    | S_undef k -> Printf.sprintf "undef<%d>" k
    | S_vec ws ->
        let n = Array.length ws in
        let shown = min n 4 in
        let parts =
          Array.to_list
            (Array.init shown (fun i -> render st ~depth:(depth - 1) ws.(i)))
        in
        "<"
        ^ String.concat ", " parts
        ^ (if n > shown then Printf.sprintf ", ...+%d" (n - shown) else "")
        ^ ">"
    | S_app (m, v) ->
        Printf.sprintf "mvm[%s](%s)" (Grow.get st.mat_infos m).label
          (render st ~depth:(depth - 1) v)
    | S_elem (a, i) -> Printf.sprintf "%s[%d]" (render st ~depth a) i
    | S_op1 (op, a) ->
        Printf.sprintf "%s(%s)" (Instr.alu_op_name op)
          (render st ~depth:(depth - 1) a)
    | S_op2 (op, a, b) ->
        Printf.sprintf "%s(%s, %s)" (Instr.alu_op_name op)
          (render st ~depth:(depth - 1) a)
          (render st ~depth:(depth - 1) b)

let render st id = render st ~depth:4 id

(* ---- Reference evaluation ---- *)

(* Evaluates the dataflow in index order (it is topologically sorted) and
   records, per (output name, element index), the expected word id. *)
let eval_reference st (df : dataflow) =
  let dim = st.dim in
  let expected : (string * int, int) Hashtbl.t = Hashtbl.create 64 in
  let vals = Array.make (Array.length df) [||] in
  Array.iteri
    (fun i (n : rnode) ->
      let pred k =
        if k >= Array.length n.preds then
          bail "reference node %d: missing predecessor %d" i k;
        let p = n.preds.(k) in
        if p < 0 || p >= i then
          bail "reference node %d: predecessor %d not topologically prior" i p;
        vals.(p)
      in
      let v =
        match n.op with
        | R_input { name; offset } ->
            Array.init n.len (fun j -> intern st (S_input (name, offset + j)))
        | R_const raws ->
            if Array.length raws < n.len then
              bail "reference node %d: constant shorter than its segment" i;
            Array.init n.len (fun j -> intern st (S_const raws.(j)))
        | R_mvm { image; label } ->
            let mat = intern_image st ~reference:true ~label image in
            let arg = pred 0 in
            if Array.length arg > dim then
              bail "reference node %d: MVM argument wider than the block" i;
            let padded =
              Array.init dim (fun j ->
                  if j < Array.length arg then arg.(j) else st.const0)
            in
            let out = apply_mvm st ~mat padded in
            if Array.length out < n.len then
              bail "reference node %d: MVM output shorter than its segment" i;
            Array.sub out 0 n.len
        | R_alu op ->
            let a = pred 0 in
            let b = if Instr.alu_op_arity op = 1 then a else pred 1 in
            if Array.length a < n.len || Array.length b < n.len then
              bail "reference node %d: operands shorter than the segment" i;
            if Instr.alu_op_arity op = 1 then
              Array.init n.len (fun j -> intern st (S_op1 (op, a.(j))))
            else
              Array.init n.len (fun j -> intern st (S_op2 (op, a.(j), b.(j))))
        | R_alui { op; imm } ->
            let a = pred 0 in
            let c = intern st (S_const imm) in
            if Array.length a < n.len then
              bail "reference node %d: operand shorter than the segment" i;
            Array.init n.len (fun j -> intern st (S_op2 (op, a.(j), c)))
        | R_gather pieces ->
            let out = Array.make n.len st.const0 in
            Array.iter
              (fun { src; src_off; piece_len; dst_off } ->
                let s = pred src in
                if
                  src_off < 0 || piece_len < 0 || dst_off < 0
                  || src_off + piece_len > Array.length s
                  || dst_off + piece_len > n.len
                then bail "reference node %d: gather piece out of range" i;
                Array.blit s src_off out dst_off piece_len)
              pieces;
            out
        | R_output { name; offset } ->
            let a = pred 0 in
            if Array.length a < n.len then
              bail "reference node %d: output shorter than its segment" i;
            for j = 0 to n.len - 1 do
              Hashtbl.replace expected (name, offset + j) a.(j)
            done;
            a
      in
      if Array.length v < n.len then
        bail "reference node %d: produced %d of %d words" i (Array.length v)
          n.len;
      vals.(i) <- v)
    df;
  expected

(* ---- Symbolic machine state ---- *)

type stream = {
  s_tile : int;  (* position in the program's tile array *)
  s_core : int option;  (* None = tile control unit *)
  code : Instr.t array;
  mutable pc : int;
  mutable halted : bool;
  trace : int Grow.t;  (* the pcs executed, in order *)
  sat : int array;
      (* per pc, bit 0: some execution created a term that may clamp;
         bit 1: some execution created none that surely clamps *)
  what : (int, string) Hashtbl.t;  (* per flagged pc: what clamps *)
  defs : int array array;
      (* with [keep_ranges]: each pc's defined registers (combined space) *)
  post : (int array * int array) option array;
      (* with [keep_ranges]: per pc, the hull of those registers'
         intervals over its executions *)
}

type core_state = { regs : int array; sregs : int array }

type tile_state = {
  mem : Shared_mem.t;  (* word ids *)
  wr_core : int array;
      (* last writer: -3 none yet, -2 host, -1 TCU, >= 0 core *)
  wr_pc : int array;
  cores : core_state array;
}

type step = Stepped | Blocked | Halted_step

(* ---- The checks over the state a run ends in ----

   A run that ends, with every stream halted or with every unfinished
   one blocked, is the program's execution, so what it leaves behind is
   exact: counted words nobody consumed, packets nobody received and
   output words nobody wrote. A wedged run also says why: each blocked
   stream that no unfinished stream can unblock, else a wait cycle among
   them. A stream can still reach the instructions from its pc on, or
   all of them once it has a jump or branch, and a register-indirect
   access may touch any word. Tile control streams hold only sends,
   receives and halts, so for channels this is exact. *)

type wait = On_fifo of int | On_writer of int | On_reader of int

let may_write a = function
  | Instr.Store { addr = Instr.Sreg_addr _; _ } -> true
  | Instr.Store { addr = Instr.Imm_addr x; vec_width = w; _ }
  | Instr.Receive { mem_addr = x; vec_width = w; _ } ->
      x <= a && a < x + w
  | _ -> false

let may_read a = function
  | Instr.Load { addr = Instr.Sreg_addr _; _ } -> true
  | Instr.Load { addr = Instr.Imm_addr x; vec_width = w; _ }
  | Instr.Send { mem_addr = x; vec_width = w; _ } ->
      x <= a && a < x + w
  | _ -> false

let end_checks (p : Program.t) ~streams ~tiles ~channels =
  let index pos = p.Program.tiles.(pos).Program.tile_index in
  let at pos c pc =
    Printf.sprintf "tile %d %s pc %d" (index pos)
      (if c < 0 then "tcu" else Printf.sprintf "core %d" c)
      pc
  in
  let core s = Option.value ~default:(-1) s.s_core in
  let live =
    List.filter (fun s -> not s.halted) (Array.to_list streams)
    |> List.map (fun s ->
           let loops =
             Array.exists
               (function Instr.Jmp _ | Instr.Brn _ -> true | _ -> false)
               s.code
           in
           let from = if loops then 0 else s.pc in
           (s, Array.sub s.code from (Array.length s.code - from)))
    |> Array.of_list
  in
  (* The live streams on tile [pos], other than [except], that may still
     execute an instruction satisfying [f]. *)
  let can ?(except = -1) pos f =
    List.filter
      (fun i ->
        let s, ahead = live.(i) in
        i <> except && s.s_tile = pos && Array.exists f ahead)
      (List.init (Array.length live) Fun.id)
  in
  (* Who may still send on each channel (destination tile index, fifo),
     and how many receives each channel (position, fifo) may still take. *)
  let senders = Hashtbl.create 16 and receives = Hashtbl.create 16 in
  Array.iteri
    (fun i (s, ahead) ->
      Array.iter
        (function
          | Instr.Send { target; fifo_id; _ } ->
              Hashtbl.add senders (target, fifo_id) i
          | Instr.Receive { fifo_id; _ } ->
              Hashtbl.add receives (s.s_tile, fifo_id) ()
          | _ -> ())
        ahead)
    live;
  (* The write a word last saw, with the consumer count it set. *)
  let last_write pos a =
    let c = tiles.(pos).wr_core.(a) and pc = tiles.(pos).wr_pc.(a) in
    let tp = p.Program.tiles.(pos) in
    match (if c < 0 then tp.Program.tile_code else tp.Program.core_code.(c)).(pc) with
    | Instr.Store { count; _ } | Instr.Receive { count; _ } ->
        Printf.sprintf "the count-%d write by %s" count (at pos c pc)
    | _ -> "its write"
  in
  (* A read of an invalid word that no stream can still write. *)
  let dead_read ?core ?pc pos a what =
    if tiles.(pos).wr_core.(a) = -3 then
      Diag.error ~code:"E-RBW" ~tile:(index pos) ?core ?pc
        "%s reads smem[%d], which nothing writes" what a
    else
      Diag.error ~code:"E-CONSUME" ~tile:(index pos) ?core ?pc
        "%s reads smem[%d] after %s is used up, and nothing writes it again"
        what a (last_write pos a)
  in
  let wait (s, _) =
    let ts = tiles.(s.s_tile) in
    (* Every blocked access was range-checked when it was tried. *)
    let on_writer addr width =
      let a = Shared_mem.read_blocker ts.mem ~addr ~width in
      if a < 0 then None else Some (On_writer a)
    and on_reader addr width =
      let a = Shared_mem.write_blocker ts.mem ~addr ~width in
      if a < 0 then None else Some (On_reader a)
    and resolve = function
      | Instr.Imm_addr a -> a
      | Instr.Sreg_addr r -> ts.cores.(core s).sregs.(r)
    in
    match s.code.(s.pc) with
    | Instr.Receive { fifo_id; mem_addr; vec_width; _ } -> (
        match Hashtbl.find_opt channels (s.s_tile, fifo_id) with
        | Some (_, q) when not (Queue.is_empty q) -> on_reader mem_addr vec_width
        | _ -> Some (On_fifo fifo_id))
    | Instr.Send { mem_addr; vec_width; _ } -> on_writer mem_addr vec_width
    | Instr.Load { addr; vec_width; _ } -> on_writer (resolve addr) vec_width
    | Instr.Store { addr; vec_width; _ } -> on_reader (resolve addr) vec_width
    | _ -> None
  in
  let waits = Array.map wait live in
  let edges =
    Array.mapi
      (fun i (s, _) ->
        match waits.(i) with
        | None -> []
        | Some (On_fifo f) ->
            Hashtbl.find_all senders (index s.s_tile, f)
            |> List.filter (( <> ) i)
            |> List.sort_uniq compare
        | Some (On_writer a) -> can ~except:i s.s_tile (may_write a)
        | Some (On_reader a) -> can ~except:i s.s_tile (may_read a))
      live
  in
  (* Writers already named by a store blocked over their unread words,
     which [unread] below does not report again. *)
  let named = Hashtbl.create 4 in
  let stuck i (s, _) =
    let pos = s.s_tile and pc = s.pc and core = s.s_core in
    match (waits.(i), edges.(i)) with
    | Some (On_fifo f), [] ->
        Some
          (Diag.error ~code:"E-RECVU" ~tile:(index pos) ~pc
             "receive on fifo %d blocks forever: no unfinished tile can still \
              send on it"
             f)
    | Some (On_writer a), [] ->
        Some (dead_read ?core ~pc pos a (if core = None then "send" else "load"))
    | Some (On_reader a), [] ->
        let ts = tiles.(pos) in
        Hashtbl.replace named (pos, ts.wr_core.(a), ts.wr_pc.(a)) ();
        Some
          (Diag.error ~code:"E-CONSUME" ~tile:(index pos) ?core ~pc
             "write of smem[%d] blocks forever: %s still awaits %d read(s) \
              that no stream can make"
             a (last_write pos a)
             (Shared_mem.state tiles.(pos).mem ~addr:a))
    | _ -> None
  in
  let stuck = List.filter_map Fun.id (Array.to_list (Array.mapi stuck live)) in
  (* With nothing stuck, every blocked stream waits on another, so
     following the first of each one's unblockers closes a cycle. *)
  let deadlocks =
    if Array.exists (fun e -> e = []) edges then []
    else begin
      let seen = Array.make (Array.length live) (-1) and out = ref [] in
      let describe i =
        let s, _ = live.(i) in
        at s.s_tile (core s) s.pc
        ^
        match waits.(i) with
        | Some (On_fifo f) -> Printf.sprintf " waits on fifo %d" f
        | Some (On_writer a) -> Printf.sprintf " waits to read smem[%d]" a
        | Some (On_reader a) -> Printf.sprintf " waits to write smem[%d]" a
        | None -> ""
      in
      let rec walk start path i =
        if seen.(i) < 0 then begin
          seen.(i) <- start;
          walk start (i :: path) (List.hd edges.(i))
        end
        else if seen.(i) = start then begin
          let rec upto = function
            | x :: rest when x <> i -> x :: upto rest
            | _ -> [ i ]
          in
          let cycle = List.rev (upto path) and s, _ = live.(i) in
          out :=
            Diag.error ~code:"E-DEADLOCK" ~tile:(index s.s_tile) ?core:s.s_core
              ~pc:s.pc "wait cycle: %s -> back to %s"
              (String.concat " -> " (List.map describe cycle))
              (at s.s_tile (core s) s.pc)
            :: !out
        end
      in
      Array.iteri (fun i _ -> walk i [] i) live;
      List.rev !out
    end
  in
  (* Packets beyond the receives their destination may still take. *)
  let unreceived =
    Hashtbl.fold
      (fun (dst, fifo) (src, q) acc ->
        let extra =
          Queue.length q - List.length (Hashtbl.find_all receives (dst, fifo))
        in
        List.of_seq (Queue.to_seq q)
        |> List.rev
        |> List.filteri (fun k _ -> k < extra)
        |> List.map fst |> List.sort_uniq compare
        |> List.map (fun pc ->
               Diag.error ~code:"E-SENDU" ~tile:(index src) ~pc
                 "send on fifo %d to tile %d has no matching receive" fifo
                 (index dst))
        |> List.rev_append acc)
      channels []
  in
  (* Counted words no stream can still read, once per writing
     instruction that no blocked store named. *)
  let unread =
    List.concat
      (List.init (Array.length tiles) (fun pos ->
           let ts = tiles.(pos) and out = ref [] in
           for a = 0 to Shared_mem.words ts.mem - 1 do
             let m = Shared_mem.state ts.mem ~addr:a
             and c = ts.wr_core.(a) and pc = ts.wr_pc.(a) in
             if
               m > 0
               && (not (Hashtbl.mem named (pos, c, pc)))
               && can pos (may_read a) = []
             then begin
               Hashtbl.add named (pos, c, pc) ();
               out :=
                 Diag.error ~code:"E-CONSUME" ~tile:(index pos)
                   ?core:(if c >= 0 then Some c else None) ~pc
                   "write leaves smem[%d] with %d of its reads never made"
                   a m
                 :: !out
             end
           done;
           List.rev !out))
  in
  (* Output words that are not valid and that no stream can still write. *)
  let outputs =
    List.filter_map
      (fun (b : Program.io_binding) ->
        let pos = b.Program.tile in
        let rec go k =
          let a = b.Program.mem_addr + k and mem = tiles.(pos).mem in
          if k >= b.Program.length then None
          else if Shared_mem.state mem ~addr:a >= 0 || can pos (may_write a) <> []
          then go (k + 1)
          else Some (dead_read pos a (Printf.sprintf "output binding %S" b.Program.name))
        in
        go 0)
      p.Program.outputs
  in
  stuck @ deadlocks @ unreceived @ unread @ outputs

let run ?(fuel = 4_000_000) ?(input_range = (Fixed.min_raw, Fixed.max_raw))
    ?(ranges = true) ?(keep_ranges = false) ?reference (p : Program.t) =
  if fst input_range > snd input_range then
    invalid_arg "Equiv.run: empty input_range (lo > hi)";
  let ranges = ranges || keep_ranges in
  let config = p.Program.config in
  let dim = config.Puma_hwmodel.Config.mvmu_dim in
  let layout = Operand.layout config in
  let total = layout.Operand.total in
  let width = total + Operand.num_scalar_regs in
  let nmvmus = config.Puma_hwmodel.Config.mvmus_per_core in
  let smem_words = config.Puma_hwmodel.Config.smem_bytes / 2 in
  let ntiles = Array.length p.Program.tiles in
  let index pos = p.Program.tiles.(pos).Program.tile_index in
  (* About one id per reference word; the program's words mostly reuse
     them. *)
  let size =
    match reference with
    | Some df -> Array.fold_left (fun n (r : rnode) -> n + r.len) 0 df
    | None -> 0
  in
  let st = intern_state ~size ~dim ~input_range ~ranges in
  let init = intern st S_init in
  let steps = ref 0 in
  let mvm_apps = ref 0 in
  let def_words i =
    List.concat_map
      (fun (base, w) ->
        let lo = max 0 base and hi = min width (base + w) in
        List.init (max 0 (hi - lo)) (fun k -> lo + k))
      (Regflow.effects layout i).Regflow.defs
    |> Array.of_list
  in
  let stream s_tile s_core code =
    let n = Array.length code in
    let keep = keep_ranges && s_core <> None in
    {
      s_tile;
      s_core;
      code;
      pc = 0;
      halted = false;
      trace = Grow.create ~capacity:n 0;
      sat = Array.make n 0;
      what = Hashtbl.create 8;
      defs = (if keep then Array.map def_words code else [||]);
      post = Array.make (if keep then n else 0) None;
    }
  in
  let streams = ref [] in
  Array.iteri
    (fun pos (tp : Program.tile_program) ->
      if Array.length tp.Program.tile_code > 0 then
        streams := stream pos None tp.Program.tile_code :: !streams;
      Array.iteri
        (fun c code ->
          if Array.length code > 0 then
            streams := stream pos (Some c) code :: !streams)
        tp.Program.core_code)
    p.Program.tiles;
  let streams = Array.of_list (List.rev !streams) in
  let tiles = ref [||] in
  let stopped = ref None and wedged = ref None in
  (* [E-CHANW] per receive that met a packet of another width and
     [E-SMEM] at an access outside shared memory, latest first: the
     runtime traps there, and the proof is refuted. *)
  let trapped = ref [] in
  (* NoC channels: per (destination tile position, fifo) in-order queues
     of (send pc, words), each with its one sender tile position. *)
  let channels : (int * int, int * (int * int array) Queue.t) Hashtbl.t =
    Hashtbl.create 16
  in
  (* What the current core instruction's new terms found ({!Range.flag}),
     folded into its pc's [sat] bits as it retires. *)
  let ex_may = ref false and ex_must = ref false and ex_what = ref "" in
  let note id =
    match Grow.get st.flags id with
    | Range.Clean -> ()
    | Range.May w ->
        ex_may := true;
        if !ex_what = "" then ex_what := w
    | Range.Must w ->
        ex_may := true;
        ex_must := true;
        ex_what := w
  in
  let settle s =
    let pc = s.pc in
    s.sat.(pc) <-
      s.sat.(pc) lor (if !ex_may then 1 else 0) lor if !ex_must then 0 else 2;
    if !ex_may then Hashtbl.replace s.what pc !ex_what;
    ex_may := false;
    ex_must := false;
    ex_what := ""
  in
  let record s cs =
    let words = s.defs.(s.pc) in
    let n = Array.length words in
    if n > 0 then begin
      let lo, hi =
        match s.post.(s.pc) with
        | Some b -> b
        | None ->
            let b = (Array.make n max_int, Array.make n min_int) in
            s.post.(s.pc) <- Some b;
            b
      in
      for i = 0 to n - 1 do
        let k = words.(i) in
        let l, h =
          if k < total then
            let w = cs.regs.(k) in
            (Grow.get st.lo w, Grow.get st.hi w)
          else
            let v = cs.sregs.(k - total) in
            (v, v)
        in
        if l < lo.(i) then lo.(i) <- l;
        if h > hi.(i) then hi.(i) <- h
      done
    end
  in
  let execute () =
    (* Send targets name tiles by [tile_index]; map back to positions. *)
    let tile_pos : (int, int) Hashtbl.t = Hashtbl.create 8 in
    Array.iteri
      (fun pos (tp : Program.tile_program) ->
        Hashtbl.replace tile_pos tp.Program.tile_index pos)
      p.Program.tiles;
    (* Per-tile memory sized to the tile's footprint: every access the
       range checks below (against capacity) let through falls inside
       it. *)
    let footprint = Program.footprint p in
    tiles :=
      Array.init ntiles (fun pos ->
          let words = footprint pos in
          {
            mem = Shared_mem.create ~words;
            wr_core = Array.make words (-3);
            wr_pc = Array.make words (-1);
            cores =
              Array.init config.Puma_hwmodel.Config.cores_per_tile (fun _ ->
                  {
                    regs = Array.make total init;
                    sregs = Array.make Operand.num_scalar_regs 0;
                  });
          });
    let tiles = !tiles in
    (* MVMU images, interned by content. *)
    let images : (int * int * int, int) Hashtbl.t = Hashtbl.create 32 in
    Array.iteri
      (fun pos (tp : Program.tile_program) ->
        List.iter
          (fun (img : Program.mvmu_image) ->
            let label =
              Printf.sprintf "tile%d.core%d.mvmu%d" tp.Program.tile_index
                img.Program.core_index img.Program.mvmu_index
            in
            Hashtbl.replace images
              (pos, img.Program.core_index, img.Program.mvmu_index)
              (intern_image st ~reference:false ~label img.Program.image))
          tp.Program.mvmu_images)
      p.Program.tiles;
    (* Host writes: inputs symbolic, constants concrete raws (sticky). *)
    let host_write ~tile ~addr word =
      let ts = tiles.(tile) in
      Shared_mem.host_write ts.mem ~addr ~values:[| word |];
      ts.wr_core.(addr) <- -2;
      ts.wr_pc.(addr) <- -1
    in
    List.iter
      (fun (b : Program.io_binding) ->
        for k = 0 to b.Program.length - 1 do
          host_write ~tile:b.Program.tile ~addr:(b.Program.mem_addr + k)
            (intern st (S_input (b.Program.name, b.Program.offset + k)))
        done)
      p.Program.inputs;
    List.iter
      (fun ((b : Program.io_binding), raws) ->
        Array.iteri
          (fun k w ->
            host_write ~tile:b.Program.tile ~addr:(b.Program.mem_addr + k)
              (intern st (S_const w)))
          raws)
      p.Program.constants;
    (* A second sender makes a channel's arrival order
       scheduler-dependent, so the run stops there. *)
    let channel key src =
      match Hashtbl.find_opt channels key with
      | Some (s, q) ->
          if s <> src then
            bail ~tile:(fst key)
              "fifo %d is written by tiles %d and %d; cross-sender arrival \
               order is scheduler-dependent, proof withheld"
              (snd key) s src;
          q
      | None ->
          let q = Queue.create () in
          Hashtbl.add channels key (src, q);
          q
    in
    (* Shared memory blocks, consumes and invalidates exactly as the
       runtime's does; a write that succeeds records its writer. *)
    let smem_write ts ~addr ~src ~src_pos ~width ~count ~writer_core
        ~writer_pc =
      Shared_mem.write_from ts.mem ~addr ~src ~src_pos ~width ~count
      && begin
           Array.fill ts.wr_core addr width writer_core;
           Array.fill ts.wr_pc addr width writer_pc;
           true
         end
    in
    (* ---- One symbolic step of a stream ----

       [Check] has passed the program (but for [E-IMEM]), so every
       register operand, scalar register, MVM mask, immediate address and
       stream kind is in range; only values the run computes are checked
       here. *)
    let step_stream (s : stream) =
      if s.halted then Halted_step
      else if s.pc >= Array.length s.code then begin
        s.halted <- true;
        Halted_step
      end
      else begin
        let tile = s.s_tile in
        let ts = tiles.(tile) in
        let count () = ignore (Grow.push s.trace s.pc) in
        let halt () =
          count ();
          s.halted <- true;
          Halted_step
        in
        let jump pc =
          count ();
          s.pc <- pc;
          incr steps;
          Stepped
        in
        let retire () =
          count ();
          (match s.s_core with
          | Some c when keep_ranges -> record s ts.cores.(c)
          | _ -> ());
          s.pc <- s.pc + 1;
          incr steps;
          Stepped
        in
        match s.s_core with
        | None -> (
            (* Tile control unit: send / receive / halt only. *)
            match s.code.(s.pc) with
            | Instr.Send { mem_addr; fifo_id; target; vec_width } -> (
                match Shared_mem.read ts.mem ~addr:mem_addr ~width:vec_width with
                | None -> Blocked
                | Some words -> (
                    match Hashtbl.find_opt tile_pos target with
                    | None ->
                        bail ~tile:(index tile) ~pc:s.pc
                          "send targets tile %d outside the node" target
                    | Some dst ->
                        Queue.add (s.pc, words) (channel (dst, fifo_id) tile);
                        retire ()))
            | Instr.Receive { mem_addr; fifo_id; count; vec_width } -> (
                match Hashtbl.find_opt channels (tile, fifo_id) with
                | None -> Blocked
                | Some (_, q) when Queue.is_empty q -> Blocked
                | Some (src, q) ->
                    (* A packet of another width traps the runtime; the
                       run records that and goes on as if the widths
                       agreed, so the checks still see the rest. *)
                    let send_pc, packet = Queue.peek q in
                    let n = Array.length packet in
                    let words =
                      if n = vec_width then packet
                      else
                        Array.init vec_width (fun k ->
                            if k < n then packet.(k) else st.const0)
                    in
                    if
                      smem_write ts ~addr:mem_addr ~src:words ~src_pos:0
                        ~width:vec_width ~count ~writer_core:(-1)
                        ~writer_pc:s.pc
                    then begin
                      if n <> vec_width then
                        trapped :=
                          Diag.error ~code:"E-CHANW" ~tile:(index tile)
                            ~pc:s.pc
                            "receive of width %d on fifo %d meets the \
                             %d-word packet tile %d sent at pc %d: the \
                             runtime traps here"
                            vec_width fifo_id n (index src) send_pc
                          :: !trapped;
                      ignore (Queue.pop q);
                      retire ()
                    end
                    else Blocked)
            | _ ->
                (* [Halt]: [Check] keeps core instructions out. *)
                halt ())
        | Some c -> (
            let cs = ts.cores.(c) in
            (* A register-indirect access outside shared memory traps the
               runtime: record that, then stop the run, whose state past
               the trap means nothing. *)
            let resolve what addr width =
              match addr with
              | Instr.Imm_addr a -> a
              | Instr.Sreg_addr r ->
                  let a = cs.sregs.(r) in
                  if a < 0 || a + width > smem_words then begin
                    trapped :=
                      Diag.error ~code:"E-SMEM" ~tile:(index tile) ~core:c
                        ~pc:s.pc
                        "%s of [%d, %d) leaves the %d-word shared memory: \
                         the runtime traps here"
                        what a (a + width) smem_words
                      :: !trapped;
                    bail ~tile:(index tile) ~core:c ~pc:s.pc
                      "%s [%d, %d) outside shared memory" what a (a + width)
                  end;
                  a
            in
            (* A computed lane: its term's flags count toward this pc. *)
            let put k id =
              cs.regs.(k) <- id;
              note id
            in
            match s.code.(s.pc) with
            | Instr.Mvm { mask; filter = _; stride } ->
                for m = 0 to nmvmus - 1 do
                  if mask land (1 lsl m) <> 0 then begin
                    incr mvm_apps;
                    let xin = Operand.xbar_in layout ~mvmu:m ~elem:0 in
                    let xout = Operand.xbar_out layout ~mvmu:m ~elem:0 in
                    match Hashtbl.find_opt images (tile, c, m) with
                    | Some mat ->
                        let arg =
                          Array.init dim (fun j ->
                              cs.regs.(xin + ((j + stride) mod dim)))
                        in
                        Array.iteri
                          (fun i w -> put (xout + i) w)
                          (apply_mvm st ~mat arg)
                    | None ->
                        (* Unprogrammed crossbar: exactly zero. *)
                        Array.fill cs.regs xout dim st.const0
                  end
                done;
                settle s;
                retire ()
            | Instr.Alu { op; dest; src1; src2; vec_width } ->
                (match op with
                | Instr.Subsample ->
                    for k = 0 to vec_width - 1 do
                      cs.regs.(dest + k) <- cs.regs.(src1 + (2 * k))
                    done
                | Instr.Rand ->
                    for k = 0 to vec_width - 1 do
                      cs.regs.(dest + k) <- fresh_undef st
                    done
                | _ when Instr.alu_op_arity op = 1 ->
                    for k = 0 to vec_width - 1 do
                      put (dest + k) (intern st (S_op1 (op, cs.regs.(src1 + k))))
                    done
                | _ ->
                    for k = 0 to vec_width - 1 do
                      put (dest + k)
                        (intern st
                           (S_op2 (op, cs.regs.(src1 + k), cs.regs.(src2 + k))))
                    done);
                settle s;
                retire ()
            | Instr.Alui { op; dest; src1; imm; vec_width } ->
                let c_imm = intern st (S_const imm) in
                (if Instr.alu_op_arity op = 1 then
                   for k = 0 to vec_width - 1 do
                     put (dest + k) (intern st (S_op1 (op, cs.regs.(src1 + k))))
                   done
                 else
                   for k = 0 to vec_width - 1 do
                     put (dest + k)
                       (intern st (S_op2 (op, cs.regs.(src1 + k), c_imm)))
                   done);
                settle s;
                retire ()
            | Instr.Alu_int { op; dest; src1; src2 } ->
                cs.sregs.(dest) <-
                  Puma_arch.Sfu.apply op cs.sregs.(src1) cs.sregs.(src2);
                retire ()
            | Instr.Set { dest; imm } ->
                cs.regs.(dest) <- intern st (S_const imm);
                retire ()
            | Instr.Set_sreg { dest; imm } ->
                cs.sregs.(dest) <- imm;
                retire ()
            | Instr.Copy { dest; src; vec_width } ->
                (* Overlap-safe like the hardware's element loop. *)
                for k = 0 to vec_width - 1 do
                  cs.regs.(dest + k) <- cs.regs.(src + k)
                done;
                retire ()
            | Instr.Load { dest; addr; vec_width } ->
                let a = resolve "load" addr vec_width in
                if
                  Shared_mem.read_into ts.mem ~addr:a ~width:vec_width
                    ~dst:cs.regs ~dst_pos:dest
                then retire ()
                else Blocked
            | Instr.Store { src; addr; count; vec_width } ->
                let a = resolve "store" addr vec_width in
                if
                  smem_write ts ~addr:a ~src:cs.regs ~src_pos:src
                    ~width:vec_width ~count ~writer_core:c ~writer_pc:s.pc
                then retire ()
                else Blocked
            | Instr.Jmp { pc } -> jump pc
            | Instr.Brn { op; src1; src2; pc } ->
                if Puma_arch.Sfu.branch_taken op cs.sregs.(src1) cs.sregs.(src2)
                then jump pc
                else retire ()
            | Instr.Halt | Instr.Send _ | Instr.Receive _ ->
                (* [Halt]: [Check] keeps tile instructions out. *)
                halt ())
      end
    in
    (* ---- Round-robin run-until-blocked scheduling ---- *)
    let all_halted () = Array.for_all (fun s -> s.halted) streams in
    let progress = ref true in
    while (not (all_halted ())) && !progress && !steps < fuel do
      progress := false;
      Array.iter
        (fun s ->
          let continue_ = ref true in
          while !continue_ && !steps < fuel do
            match step_stream s with
            | Stepped -> progress := true
            | Blocked | Halted_step -> continue_ := false
          done)
        streams
    done;
    if !steps >= fuel then
      bail "fuel exhausted after %d instructions (raise ?fuel)" !steps;
    if not (all_halted ()) then begin
      (* Wedged: every unfinished stream is blocked. A real execution
         blocks the same way — outputs are never produced. *)
      let blocked = List.filter (fun s -> not s.halted) (Array.to_list streams) in
      let first = List.hd blocked in
      wedged :=
        Some
          (Diag.error ~code:"E-EQUIV" ~tile:(index first.s_tile)
             ?core:first.s_core ~pc:first.pc
             "symbolic execution wedged with %d stream(s) blocked: the \
              program can never produce its outputs"
             (List.length blocked))
    end
  in
  (* The run trusts [Check]: a program it rejects stops before its first
     step. [E-IMEM] is exempt, since an over-budget stream executes like
     any other and its verdict still means something. *)
  (match
     List.find_opt
       (fun (d : Diag.t) -> d.code <> "E-IMEM")
       (Puma_isa.Check.diagnose p)
   with
  | Some d ->
      stopped :=
        Some
          {
            d with
            code = "W-EQUIV-UNKNOWN";
            severity = Diag.Warning;
            message =
              Printf.sprintf "the program fails the structural check (%s: %s)"
                d.code d.message;
          }
  | None -> ( try execute () with Bail d -> stopped := Some d));
  (* A run that stopped short leaves a prefix's state, which the checks
     would misread; one warning says what they do not cover. *)
  let checks =
    List.rev !trapped
    @
    match !stopped with
    | None -> end_checks p ~streams ~tiles:!tiles ~channels
    | Some (d : Diag.t) ->
        [
          {
            d with
            code = "W-RANGE-PARTIAL";
            severity = Diag.Warning;
            message =
              Printf.sprintf
                "value ranges, the register checks and the channel and \
                 consumer-count checks cover only the %d instructions \
                 executed before the run stopped: %s"
                !steps d.message;
          };
        ]
  in
  (* ---- Value ranges: per core pc, from the terms its executions
     created; a run that stopped short covers only its prefix. ---- *)
  let tile_index s = index s.s_tile in
  let range_diags =
    let diags = ref [] in
    Array.iter
      (fun s ->
        match s.s_core with
        | None -> ()
        | Some core ->
            let tile = tile_index s in
            Array.iteri
              (fun pc bits ->
                if bits land 1 <> 0 then
                  diags :=
                    Range.saturation ~tile ~core ~pc ~every:(bits = 1)
                      (Hashtbl.find s.what pc)
                    :: !diags)
              s.sat;
            if keep_ranges then begin
              let lo = Array.make width max_int
              and hi = Array.make width min_int
              and defined = Array.make width false in
              Array.iteri
                (fun pc ->
                  Option.iter (fun (plo, phi) ->
                      Array.iteri
                        (fun i k ->
                          defined.(k) <- true;
                          lo.(k) <- min lo.(k) plo.(i);
                          hi.(k) <- max hi.(k) phi.(i))
                        s.defs.(pc)))
                s.post;
              diags :=
                List.rev_append
                  (Range.dump ~layout ~tile ~core ~lo ~hi ~defined)
                  !diags
            end)
      streams;
    if ranges then List.rev !diags else []
  in
  let find f = Array.find_opt f streams in
  let interval ~tile ~core ~pc ~reg =
    match find (fun s -> s.s_core = Some core && tile_index s = tile) with
    | Some s when keep_ranges && pc >= 0 && pc < Array.length s.post -> (
        match s.post.(pc) with
        | None -> None
        | Some (lo, hi) ->
            let words = s.defs.(pc) in
            let rec at i =
              if i >= Array.length words then None
              else if words.(i) = reg then Some (lo.(i), hi.(i))
              else at (i + 1)
            in
            at 0)
    | _ -> None
  in
  let executions ~pos ~core =
    Option.map
      (fun s -> { trace = Grow.to_array s.trace; finished = s.halted })
      (find (fun s -> s.s_tile = pos && s.s_core = core))
  in
  (* ---- Compare the run's outputs against the reference ---- *)
  let validate reference =
    let diags = ref [] in
    let push_diag d = diags := d :: !diags in
    let unknowns = ref 0 in
    let compare_outputs () =
      let expected = eval_reference st reference in
      let tiles = !tiles in
      let got : (string * int, int * int * int * int) Hashtbl.t =
        Hashtbl.create 64
      in
      List.iter
        (fun (b : Program.io_binding) ->
          let ts = tiles.(b.Program.tile) in
          for k = 0 to b.Program.length - 1 do
            let a = b.Program.mem_addr + k in
            match Shared_mem.peek ts.mem ~addr:a ~width:1 with
            | Some [| w |] ->
                Hashtbl.replace got
                  (b.Program.name, b.Program.offset + k)
                  (w, b.Program.tile, ts.wr_core.(a), ts.wr_pc.(a))
            | _ -> ()
          done)
        p.Program.outputs;
      let output_words = ref 0 in
      let mismatched = ref 0 in
      let per_output_reported : (string, int) Hashtbl.t = Hashtbl.create 8 in
      let report_budget name =
        let n =
          Option.value ~default:0 (Hashtbl.find_opt per_output_reported name)
        in
        Hashtbl.replace per_output_reported name (n + 1);
        n < 3
      in
      let keys =
        Hashtbl.fold (fun k _ acc -> k :: acc) expected [] |> List.sort compare
      in
      List.iter
        (fun (name, idx) ->
          incr output_words;
          let want = Hashtbl.find expected (name, idx) in
          match Hashtbl.find_opt got (name, idx) with
          | None ->
              incr mismatched;
              if report_budget name then
                push_diag
                  (Diag.error ~code:"E-EQUIV"
                     "output %s[%d] is never produced by the compiled program"
                     name idx)
          | Some (w, tile, wc, wpc) when w <> want ->
              incr mismatched;
              if report_budget name then
                if Grow.get st.taints w then begin
                  incr unknowns;
                  push_diag
                    (Diag.warning ~code:"W-EQUIV-UNKNOWN" ~tile
                       ?core:(if wc >= 0 then Some wc else None)
                       ?pc:(if wpc >= 0 then Some wpc else None)
                       "output %s[%d] depends on an undefined value (%s); \
                        equivalence cannot be decided"
                       name idx (render st w))
                end
                else
                  push_diag
                    (Diag.error ~code:"E-EQUIV" ~tile
                       ?core:(if wc >= 0 then Some wc else None)
                       ?pc:(if wpc >= 0 then Some wpc else None)
                       "output %s[%d] computes %s but the source dataflow \
                        computes %s"
                       name idx (render st w) (render st want))
          | Some _ -> ())
        keys;
      (* Outputs the program writes but the source graph does not have. *)
      Hashtbl.iter
        (fun (name, idx) _ ->
          if not (Hashtbl.mem expected (name, idx)) then begin
            incr mismatched;
            if report_budget name then
              push_diag
                (Diag.error ~code:"E-EQUIV"
                   "compiled program produces output %s[%d] absent from the \
                    source dataflow"
                   name idx)
          end)
        got;
      Hashtbl.iter
        (fun name n ->
          if n > 3 then
            push_diag
              (Diag.info ~code:"I-EQUIV"
                 "output %s: %d further mismatched words" name (n - 3)))
        per_output_reported;
      (!output_words, !mismatched)
    in
    let output_words, mismatched =
      match (List.rev !trapped, !stopped) with
      | d :: _, _ ->
          push_diag { d with code = "E-EQUIV" };
          (0, 1)
      | [], Some d ->
          incr unknowns;
          push_diag d;
          (0, 0)
      | [], None -> (
          Option.iter push_diag !wedged;
          try compare_outputs ()
          with Bail d ->
            incr unknowns;
            push_diag d;
            (0, 0))
    in
    let has_errors =
      List.exists (fun (d : Diag.t) -> d.Diag.severity = Diag.Error) !diags
    in
    let verdict =
      if has_errors then Refuted else if !unknowns > 0 then Unknown else Proved
    in
    (if verdict = Proved then
       let num_outputs =
         List.sort_uniq compare
           (List.map (fun (b : Program.io_binding) -> b.Program.name)
              p.Program.outputs)
         |> List.length
       in
       push_diag
         (Diag.info ~code:"I-EQUIV"
            "translation validated: %d output words across %d output(s) \
             match the source dataflow (%d MVM applications, %d instructions \
             executed)"
            output_words num_outputs !mvm_apps !steps));
    {
      verdict;
      diags = List.sort Diag.compare !diags;
      output_words;
      mismatched_words = mismatched;
      mvm_apps = !mvm_apps;
      steps = !steps;
    }
  in
  {
    equiv = Option.map validate reference;
    ranges = range_diags;
    checks;
    interval;
    executions;
  }

let check ?fuel ~reference p =
  Option.get (run ?fuel ~ranges:false ~reference p).equiv
