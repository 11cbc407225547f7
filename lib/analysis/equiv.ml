module Instr = Puma_isa.Instr
module Program = Puma_isa.Program
module Operand = Puma_isa.Operand
module Fixed = Puma_util.Fixed

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

(* ---- Hash-consed symbolic words ----

   Every value a register, shared-memory word or NoC packet word can hold
   is an interned id; structural equality of provenance DAGs is id
   equality. Copies (register moves, loads/stores, sends/receives) move
   ids around without interning anything, so the executor's cost is
   dominated by the instructions that actually compute. *)

type desc =
  | S_input of string * int  (* network input name, element index *)
  | S_const of int  (* raw 16-bit fixed-point word *)
  | S_undef of int  (* fresh unknown (reads of unmodelled sources) *)
  | S_vec of int array  (* an MVM argument vector, word ids *)
  | S_app of int * int  (* matrix id, argument S_vec id *)
  | S_elem of int * int  (* S_app id, output element *)
  | S_op1 of Instr.alu_op * int
  | S_op2 of Instr.alu_op * int * int

(* A dim x dim crossbar-block image, interned by its raws. *)
type mat_info = {
  mutable label : string;
  zero_col : bool array;
  zero_row : bool array;
}

(* Minimal growable array (no Dynarray dependency). *)
module Grow = struct
  type 'a t = { mutable data : 'a array; mutable len : int; dummy : 'a }

  let create dummy = { data = Array.make 64 dummy; len = 0; dummy }

  let push g x =
    if g.len = Array.length g.data then begin
      let d = Array.make (2 * g.len) g.dummy in
      Array.blit g.data 0 d 0 g.len;
      g.data <- d
    end;
    g.data.(g.len) <- x;
    g.len <- g.len + 1;
    g.len - 1

  let get g i = g.data.(i)
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
  mats : int Images.t;
  mat_infos : mat_info Grow.t;
  mutable nonce : int;
  const0 : int;  (* set right after creation: intern (S_const 0) *)
}

let taint_of st = function
  | S_input _ | S_const _ -> false
  | S_undef _ -> true
  | S_vec ws -> Array.exists (fun w -> Grow.get st.taints w) ws
  | S_app (_, v) -> Grow.get st.taints v
  | S_elem (a, _) -> Grow.get st.taints a
  | S_op1 (_, a) -> Grow.get st.taints a
  | S_op2 (_, a, b) -> Grow.get st.taints a || Grow.get st.taints b

let intern st d =
  match Hashtbl.find_opt st.ids d with
  | Some id -> id
  | None ->
      let id = Grow.push st.descs d in
      let id' = Grow.push st.taints (taint_of st d) in
      assert (id = id');
      Hashtbl.add st.ids d id;
      id

let fresh_undef st =
  st.nonce <- st.nonce + 1;
  intern st (S_undef st.nonce)

let intern_state () =
  let st =
    {
      ids = Hashtbl.create 4096;
      descs = Grow.create (S_const 0);
      taints = Grow.create false;
      mats = Images.create 64;
      mat_infos =
        Grow.create { label = ""; zero_col = [||]; zero_row = [||] };
      nonce = 0;
      const0 = 0;
    }
  in
  let z = intern st (S_const 0) in
  assert (z = 0);
  st

(* ---- Bail-out discipline ----

   [Bail] aborts the whole check into [Unknown] (we cannot model the
   program soundly); [Trap] aborts into [Refuted] (the runtime would trap
   before producing outputs). Refutations from output comparison are
   collected normally. *)

exception Bail of Diag.t
exception Trap of Diag.t

let bail ?tile ?core ?pc fmt =
  Printf.ksprintf
    (fun m ->
      raise (Bail (Diag.warning ~code:"W-EQUIV-UNKNOWN" ?tile ?core ?pc "%s" m)))
    fmt

(* Intern an image by content: the program's images and the reference's
   unify exactly when their raws agree (an image on the wrong MVMU does
   not), and
   content-equal blocks unify (the compiler may legitimately use either
   copy). [label] only sticks on first sight, so reference names win
   over program-side placeholders. *)
let intern_image st ~dim ~label img =
  match Images.find_opt st.mats img with
  | Some id -> id
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
      let id = Grow.push st.mat_infos { label; zero_col; zero_row } in
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
let eval_reference st ~dim (df : dataflow) =
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
            let mat = intern_image st ~dim ~label image in
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
            if Instr.alu_op_arity op = 1 then
              let a = pred 0 in
              Array.init n.len (fun j -> intern st (S_op1 (op, a.(j))))
            else
              let a = pred 0 and b = pred 1 in
              if Array.length a < n.len || Array.length b < n.len then
                bail "reference node %d: operands shorter than the segment" i;
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
}

type core_state = { regs : int array; sregs : int array }

type tile_state = {
  mem : int array;  (* word ids *)
  mem_state : int array;  (* -1 invalid, 0 sticky, n > 0 counted *)
  wr_core : int array;  (* last writer: -2 host, -1 TCU, >= 0 core *)
  wr_pc : int array;
  cores : core_state array;
}

type step = Stepped | Blocked | Halted_step

let check ?(fuel = 4_000_000) ~reference (p : Program.t) =
  let st = intern_state () in
  let steps = ref 0 in
  let mvm_apps = ref 0 in
  let diags = ref [] in
  let push_diag d = diags := d :: !diags in
  let unknowns = ref 0 in
  let body () =
    let config = p.Program.config in
    let dim = config.Puma_hwmodel.Config.mvmu_dim in
    let expected = eval_reference st ~dim reference in
    let layout = Operand.layout config in
    let nmvmus = config.Puma_hwmodel.Config.mvmus_per_core in
    let smem_words = config.Puma_hwmodel.Config.smem_bytes / 2 in
    let footprint = Smem.footprint p in
    let ntiles = Array.length p.Program.tiles in
    (* Send targets name tiles by [tile_index]; map back to positions. *)
    let tile_pos : (int, int) Hashtbl.t = Hashtbl.create 8 in
    Array.iteri
      (fun pos (tp : Program.tile_program) ->
        Hashtbl.replace tile_pos tp.Program.tile_index pos)
      p.Program.tiles;
    (* Per-tile memory sized to the tile's footprint: every access the
       range checks below (against capacity) let through falls inside
       it. *)
    let tiles =
      Array.init ntiles (fun pos ->
          let words = footprint pos in
          {
            mem = Array.make words st.const0;
            mem_state = Array.make words (-1);
            wr_core = Array.make words (-2);
            wr_pc = Array.make words (-1);
            cores =
              Array.init config.Puma_hwmodel.Config.cores_per_tile (fun _ ->
                  {
                    regs = Array.make layout.Operand.total st.const0;
                    sregs = Array.make Operand.num_scalar_regs 0;
                  });
          })
    in
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
              (intern_image st ~dim ~label img.Program.image))
          tp.Program.mvmu_images)
      p.Program.tiles;
    (* Host writes: inputs symbolic, constants concrete raws (sticky). *)
    let host_write ~tile ~addr word =
      if tile < 0 || tile >= ntiles then
        bail "I/O binding names tile %d outside the program" tile;
      let ts = tiles.(tile) in
      if addr < 0 || addr >= smem_words then
        bail ~tile "I/O binding writes shared-memory word %d out of range" addr;
      ts.mem.(addr) <- word;
      ts.mem_state.(addr) <- 0;
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
        for k = 0 to b.Program.length - 1 do
          let w = if k < Array.length raws then raws.(k) else 0 in
          host_write ~tile:b.Program.tile ~addr:(b.Program.mem_addr + k)
            (intern st (S_const w))
        done)
      p.Program.constants;
    (* NoC channels: per (destination tile position, fifo) in-order
       queues, plus the set of sender tiles for the soundness check. *)
    let channels : (int * int, int array Queue.t) Hashtbl.t =
      Hashtbl.create 16
    in
    let channel key =
      match Hashtbl.find_opt channels key with
      | Some q -> q
      | None ->
          let q = Queue.create () in
          Hashtbl.add channels key q;
          q
    in
    let channel_senders : (int * int, int list ref) Hashtbl.t =
      Hashtbl.create 16
    in
    let note_sender key src =
      match Hashtbl.find_opt channel_senders key with
      | Some l -> if not (List.mem src !l) then l := src :: !l
      | None -> Hashtbl.add channel_senders key (ref [ src ])
    in
    (* Shared-memory access with the runtime's exact blocking rules: a
       counted word whose count reaches 0 becomes invalid again; a sticky
       (count-0) write stays valid forever. *)
    let smem_read ts ~addr ~width =
      if addr < 0 || width < 0 || addr + width > smem_words then None
      else begin
        let ok = ref true in
        for k = addr to addr + width - 1 do
          if ts.mem_state.(k) < 0 then ok := false
        done;
        if not !ok then None
        else begin
          let words = Array.sub ts.mem addr width in
          for k = addr to addr + width - 1 do
            if ts.mem_state.(k) > 0 then begin
              ts.mem_state.(k) <- ts.mem_state.(k) - 1;
              if ts.mem_state.(k) = 0 then ts.mem_state.(k) <- -1
            end
          done;
          Some words
        end
      end
    in
    let smem_write ts ~addr ~words ~count ~writer_core ~writer_pc =
      let width = Array.length words in
      if addr < 0 || addr + width > smem_words then
        bail "shared-memory write [%d, %d) out of range" addr (addr + width);
      if count < 0 then bail "negative consumer count %d" count;
      let blocked = ref false in
      if count > 0 then
        for k = addr to addr + width - 1 do
          if ts.mem_state.(k) > 0 then blocked := true
        done;
      if !blocked then false
      else begin
        Array.iteri
          (fun i w ->
            let k = addr + i in
            ts.mem.(k) <- w;
            ts.mem_state.(k) <- count;
            ts.wr_core.(k) <- writer_core;
            ts.wr_pc.(k) <- writer_pc)
          words;
        true
      end
    in
    (* ---- One symbolic step of a stream ---- *)
    let step_stream (s : stream) =
      if s.halted then Halted_step
      else if s.pc < 0 || s.pc >= Array.length s.code then begin
        s.halted <- true;
        Halted_step
      end
      else begin
        let tile = s.s_tile in
        let ts = tiles.(tile) in
        let here fmt =
          match s.s_core with
          | Some c -> bail ~tile ~core:c ~pc:s.pc fmt
          | None -> bail ~tile ~pc:s.pc fmt
        in
        let retire () =
          s.pc <- s.pc + 1;
          incr steps;
          Stepped
        in
        match s.s_core with
        | None -> (
            (* Tile control unit: send / receive / halt only. *)
            match s.code.(s.pc) with
            | Instr.Halt ->
                s.halted <- true;
                Halted_step
            | Instr.Send { mem_addr; fifo_id; target; vec_width } -> (
                match smem_read ts ~addr:mem_addr ~width:vec_width with
                | None ->
                    if mem_addr < 0 || mem_addr + vec_width > smem_words then
                      here "send reads shared memory out of range";
                    Blocked
                | Some words -> (
                    match Hashtbl.find_opt tile_pos target with
                    | None -> here "send targets tile %d outside the node" target
                    | Some dst ->
                        let key = (dst, fifo_id) in
                        note_sender key tile;
                        Queue.add words (channel key);
                        retire ()))
            | Instr.Receive { mem_addr; fifo_id; count; vec_width } -> (
                let key = (tile, fifo_id) in
                let q = channel key in
                if Queue.is_empty q then Blocked
                else
                  let words = Queue.peek q in
                  if Array.length words <> vec_width then
                    raise
                      (Trap
                         (Diag.error ~code:"E-EQUIV" ~tile ~pc:s.pc
                            "receive of width %d meets a %d-word packet on \
                             fifo %d: the runtime traps before producing \
                             outputs"
                            vec_width (Array.length words) fifo_id))
                  else if
                    smem_write ts ~addr:mem_addr ~words ~count
                      ~writer_core:(-1) ~writer_pc:s.pc
                  then begin
                    ignore (Queue.pop q);
                    retire ()
                  end
                  else Blocked)
            | _ -> here "non-send/receive instruction in a tile stream")
        | Some c ->
            if c >= Array.length ts.cores then
              here "core index %d outside the tile" c
            else begin
              let cs = ts.cores.(c) in
              let rd_range base width =
                if base < 0 || width < 0 || base + width > layout.Operand.total
                then here "register range [%d, %d) out of range" base
                    (base + width)
              in
              let sreg i =
                if i < 0 || i >= Operand.num_scalar_regs then
                  here "scalar register %d out of range" i;
                cs.sregs.(i)
              in
              let set_sreg i v =
                if i < 0 || i >= Operand.num_scalar_regs then
                  here "scalar register %d out of range" i;
                cs.sregs.(i) <- v
              in
              let resolve = function
                | Instr.Imm_addr a -> a
                | Instr.Sreg_addr s -> sreg s
              in
              match s.code.(s.pc) with
              | Instr.Halt ->
                  s.halted <- true;
                  Halted_step
              | Instr.Mvm { mask; filter = _; stride } ->
                  if mask lsr nmvmus <> 0 then
                    here "MVM mask activates a non-existent MVMU";
                  if stride < 0 || stride >= dim then
                    here "MVM stride %d outside [0, %d)" stride dim;
                  for m = 0 to nmvmus - 1 do
                    if mask land (1 lsl m) <> 0 then begin
                      incr mvm_apps;
                      let xin = Operand.xbar_in layout ~mvmu:m ~elem:0 in
                      let xout = Operand.xbar_out layout ~mvmu:m ~elem:0 in
                      let arg =
                        Array.init dim (fun j ->
                            cs.regs.(xin + ((j + stride) mod dim)))
                      in
                      let out =
                        match Hashtbl.find_opt images (tile, c, m) with
                        | Some mat -> apply_mvm st ~mat arg
                        | None ->
                            (* Unprogrammed crossbar: exactly zero. *)
                            Array.make dim st.const0
                      in
                      Array.blit out 0 cs.regs xout dim
                    end
                  done;
                  retire ()
              | Instr.Alu { op; dest; src1; src2; vec_width } ->
                  (match op with
                  | Instr.Subsample ->
                      rd_range src1 (2 * vec_width);
                      rd_range dest vec_width;
                      for k = 0 to vec_width - 1 do
                        cs.regs.(dest + k) <- cs.regs.(src1 + (2 * k))
                      done
                  | Instr.Rand ->
                      rd_range dest vec_width;
                      for k = 0 to vec_width - 1 do
                        cs.regs.(dest + k) <- fresh_undef st
                      done
                  | _ when Instr.alu_op_arity op = 1 ->
                      rd_range src1 vec_width;
                      rd_range dest vec_width;
                      for k = 0 to vec_width - 1 do
                        cs.regs.(dest + k) <-
                          intern st (S_op1 (op, cs.regs.(src1 + k)))
                      done
                  | _ ->
                      rd_range src1 vec_width;
                      rd_range src2 vec_width;
                      rd_range dest vec_width;
                      for k = 0 to vec_width - 1 do
                        cs.regs.(dest + k) <-
                          intern st
                            (S_op2 (op, cs.regs.(src1 + k), cs.regs.(src2 + k)))
                      done);
                  retire ()
              | Instr.Alui { op; dest; src1; imm; vec_width } ->
                  rd_range src1 vec_width;
                  rd_range dest vec_width;
                  let c_imm = intern st (S_const imm) in
                  (if Instr.alu_op_arity op = 1 then
                     for k = 0 to vec_width - 1 do
                       cs.regs.(dest + k) <-
                         intern st (S_op1 (op, cs.regs.(src1 + k)))
                     done
                   else
                     for k = 0 to vec_width - 1 do
                       cs.regs.(dest + k) <-
                         intern st (S_op2 (op, cs.regs.(src1 + k), c_imm))
                     done);
                  retire ()
              | Instr.Alu_int { op; dest; src1; src2 } ->
                  let a = sreg src1 and b = sreg src2 in
                  let v =
                    match op with
                    | Instr.Iadd -> a + b
                    | Instr.Isub -> a - b
                    | Instr.Ieq -> if a = b then 1 else 0
                    | Instr.Ine -> if a <> b then 1 else 0
                    | Instr.Igt -> if a > b then 1 else 0
                  in
                  set_sreg dest v;
                  retire ()
              | Instr.Set { dest; imm } ->
                  rd_range dest 1;
                  cs.regs.(dest) <- intern st (S_const imm);
                  retire ()
              | Instr.Set_sreg { dest; imm } ->
                  set_sreg dest imm;
                  retire ()
              | Instr.Copy { dest; src; vec_width } ->
                  rd_range src vec_width;
                  rd_range dest vec_width;
                  (* Overlap-safe like the hardware's element loop. *)
                  for k = 0 to vec_width - 1 do
                    cs.regs.(dest + k) <- cs.regs.(src + k)
                  done;
                  retire ()
              | Instr.Load { dest; addr; vec_width } -> (
                  let a = resolve addr in
                  match smem_read ts ~addr:a ~width:vec_width with
                  | None ->
                      if a < 0 || a + vec_width > smem_words then
                        here "load [%d, %d) outside shared memory" a
                          (a + vec_width);
                      Blocked
                  | Some words ->
                      rd_range dest vec_width;
                      Array.blit words 0 cs.regs dest vec_width;
                      retire ())
              | Instr.Store { src; addr; count; vec_width } ->
                  let a = resolve addr in
                  rd_range src vec_width;
                  let words = Array.sub cs.regs src vec_width in
                  if
                    smem_write ts ~addr:a ~words ~count ~writer_core:c
                      ~writer_pc:s.pc
                  then retire ()
                  else Blocked
              | Instr.Jmp { pc } ->
                  s.pc <- pc;
                  incr steps;
                  Stepped
              | Instr.Brn { op; src1; src2; pc } ->
                  let a = sreg src1 and b = sreg src2 in
                  let taken =
                    match op with
                    | Instr.Beq -> a = b
                    | Instr.Bne -> a <> b
                    | Instr.Blt -> a < b
                    | Instr.Bge -> a >= b
                  in
                  if taken then begin
                    s.pc <- pc;
                    incr steps;
                    Stepped
                  end
                  else retire ()
              | Instr.Send _ | Instr.Receive _ ->
                  here "tile instruction in a core stream"
            end
      end
    in
    (* ---- Round-robin run-until-blocked scheduling ---- *)
    let streams = ref [] in
    Array.iteri
      (fun pos (tp : Program.tile_program) ->
        if Array.length tp.Program.tile_code > 0 then
          streams :=
            {
              s_tile = pos;
              s_core = None;
              code = tp.Program.tile_code;
              pc = 0;
              halted = false;
            }
            :: !streams;
        Array.iteri
          (fun c code ->
            if Array.length code > 0 then
              streams :=
                { s_tile = pos; s_core = Some c; code; pc = 0; halted = false }
                :: !streams)
          tp.Program.core_code)
      p.Program.tiles;
    let streams = Array.of_list (List.rev !streams) in
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
      let blocked =
        Array.to_list streams
        |> List.filter (fun s -> not s.halted)
        |> List.map (fun s ->
               match s.s_core with
               | Some c ->
                   Printf.sprintf "tile %d core %d pc %d" s.s_tile c s.pc
               | None -> Printf.sprintf "tile %d tcu pc %d" s.s_tile s.pc)
      in
      let shown = List.filteri (fun i _ -> i < 4) blocked in
      let first = List.find (fun s -> not s.halted) (Array.to_list streams) in
      push_diag
        (Diag.error ~code:"E-EQUIV" ~tile:first.s_tile ?core:first.s_core
           ~pc:first.pc
           "symbolic execution wedged with %d stream(s) blocked (%s%s): the \
            program can never produce its outputs"
           (List.length blocked)
           (String.concat "; " shown)
           (if List.length blocked > List.length shown then "; ..." else ""))
    end;
    (* Scheduler-dependent channel sharing voids the proof. *)
    Hashtbl.iter
      (fun (dst, fifo) senders ->
        if List.length !senders > 1 then begin
          incr unknowns;
          push_diag
            (Diag.warning ~code:"W-EQUIV-UNKNOWN" ~tile:dst
               "fifo %d is written by %d tiles; cross-sender arrival order \
                is scheduler-dependent, proof withheld"
               fifo (List.length !senders))
        end)
      channel_senders;
    (* ---- Compare program outputs against the reference ---- *)
    let got : (string * int, int * int * int * int) Hashtbl.t =
      Hashtbl.create 64
    in
    List.iter
      (fun (b : Program.io_binding) ->
        if b.Program.tile < 0 || b.Program.tile >= ntiles then
          bail "output %s binds tile %d outside the program" b.Program.name
            b.Program.tile;
        let ts = tiles.(b.Program.tile) in
        for k = 0 to b.Program.length - 1 do
          let a = b.Program.mem_addr + k in
          if a < 0 || a >= smem_words then
            bail "output %s binds shared memory out of range" b.Program.name;
          if ts.mem_state.(a) >= 0 then
            Hashtbl.replace got
              (b.Program.name, b.Program.offset + k)
              (ts.mem.(a), b.Program.tile, ts.wr_core.(a), ts.wr_pc.(a))
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
      Hashtbl.fold (fun k _ acc -> k :: acc) expected []
      |> List.sort compare
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
            (Diag.info ~code:"I-EQUIV" "output %s: %d further mismatched words"
               name (n - 3)))
      per_output_reported;
    (!output_words, !mismatched)
  in
  let output_words, mismatched =
    try body () with
    | Bail d ->
        incr unknowns;
        push_diag d;
        (0, 0)
    | Trap d ->
        push_diag d;
        (0, 1)
    | Invalid_argument m ->
        incr unknowns;
        push_diag
          (Diag.warning ~code:"W-EQUIV-UNKNOWN"
             "symbolic execution aborted on a malformed program: %s" m);
        (0, 0)
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
          "translation validated: %d output words across %d output(s) match \
           the source dataflow (%d MVM applications, %d instructions \
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
