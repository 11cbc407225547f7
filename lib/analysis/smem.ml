module Instr = Puma_isa.Instr
module Program = Puma_isa.Program

(* One static access to a tile's shared memory. Writers carry the
   consumer [count] they initialize ([count = 0] means persistent);
   readers consume one unit per covered word. *)
type writer = {
  w_desc : string;
  w_core : int option;
  w_pc : int option;
  w_addr : int;
  w_width : int;
  w_count : int;
}

type reader = {
  r_desc : string;
  r_core : int option;
  r_pc : int option;
  r_addr : int;
  r_width : int;
}

let analyze_tile ~words ~tile ~(writers : writer list)
    ~(readers : reader list) ~(outputs : Program.io_binding list) =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let written = Array.make words false in
  let multi = Array.make words false in
  let reads = Array.make words 0 in
  List.iter
    (fun w ->
      for a = w.w_addr to w.w_addr + w.w_width - 1 do
        if a >= 0 && a < words then begin
          if written.(a) then multi.(a) <- true;
          written.(a) <- true
        end
      done)
    writers;
  List.iter
    (fun r ->
      for a = r.r_addr to r.r_addr + r.r_width - 1 do
        if a >= 0 && a < words then reads.(a) <- reads.(a) + 1
      done)
    readers;
  (* Multiple writers on one word defeat the single-writer discipline the
     consumer counts rely on; report once per maximal run of words. *)
  let a = ref 0 in
  while !a < words do
    if multi.(!a) then begin
      let b = ref !a in
      while !b + 1 < words && multi.(!b + 1) do
        incr b
      done;
      add
        (Diag.warning ~code:"W-MULTIWRITE" ~tile
           "smem[%d..%d] has multiple static writers; consumer counts \
            are not checked there"
           !a !b);
      a := !b + 1
    end
    else incr a
  done;
  (* Every read must be covered by some write. *)
  List.iter
    (fun r ->
      let bad = ref None in
      for a = r.r_addr to r.r_addr + r.r_width - 1 do
        if !bad = None && a >= 0 && a < words && not written.(a) then
          bad := Some a
      done;
      match !bad with
      | Some a ->
          add
            (Diag.error ~code:"E-RBW" ~tile ?core:r.r_core ?pc:r.r_pc
               "%s reads smem[%d] which no instruction or binding writes"
               r.r_desc a)
      | None -> ())
    readers;
  List.iter
    (fun (b : Program.io_binding) ->
      let bad = ref None in
      for a = b.mem_addr to b.mem_addr + b.length - 1 do
        if !bad = None && a >= 0 && a < words && not written.(a) then
          bad := Some a
      done;
      match !bad with
      | Some a ->
          add
            (Diag.error ~code:"E-RBW" ~tile
               "output binding %S collects smem[%d] which no instruction \
                writes"
               b.name a)
      | None -> ())
    outputs;
  (* Counted writes must be consumed exactly [count] times per word. *)
  List.iter
    (fun w ->
      if w.w_count > 0 then begin
        let bad = ref None in
        for a = w.w_addr to w.w_addr + w.w_width - 1 do
          if
            !bad = None && a >= 0 && a < words && (not multi.(a))
            && reads.(a) <> w.w_count
          then bad := Some a
        done;
        match !bad with
        | Some a ->
            add
              (Diag.error ~code:"E-CONSUME" ~tile ?core:w.w_core ?pc:w.w_pc
                 "%s writes smem[%d] with consumer count %d but %d static \
                  read(s) consume it"
                 w.w_desc a w.w_count reads.(a))
        | None -> ()
      end)
    writers;
  List.rev !diags

let analyze (p : Program.t) =
  let footprint = Program.footprint p in
  let diags = ref [] in
  Array.iter
    (fun (tp : Program.tile_program) ->
      let tile = tp.tile_index in
      let writers = ref [] and readers = ref [] and dynamic = ref false in
      let binding kind (b : Program.io_binding) =
        writers :=
          {
            w_desc = Printf.sprintf "%s binding %S" kind b.name;
            w_core = None;
            w_pc = None;
            w_addr = b.mem_addr;
            w_width = b.length;
            w_count = 0;
          }
          :: !writers
      in
      List.iter
        (fun (b : Program.io_binding) -> if b.tile = tile then binding "input" b)
        p.inputs;
      List.iter
        (fun ((b : Program.io_binding), _) ->
          if b.tile = tile then binding "constant" b)
        p.constants;
      Array.iteri
        (fun core code ->
          Array.iteri
            (fun pc i ->
              match i with
              | Instr.Load { addr = Instr.Imm_addr a; vec_width; _ } ->
                  readers :=
                    {
                      r_desc = "load";
                      r_core = Some core;
                      r_pc = Some pc;
                      r_addr = a;
                      r_width = vec_width;
                    }
                    :: !readers
              | Instr.Store
                  { addr = Instr.Imm_addr a; count; vec_width; _ } ->
                  writers :=
                    {
                      w_desc = "store";
                      w_core = Some core;
                      w_pc = Some pc;
                      w_addr = a;
                      w_width = vec_width;
                      w_count = count;
                    }
                    :: !writers
              | Instr.Load { addr = Instr.Sreg_addr _; _ }
              | Instr.Store { addr = Instr.Sreg_addr _; _ } ->
                  dynamic := true
              | _ -> ())
            code)
        tp.core_code;
      Array.iteri
        (fun pc i ->
          match i with
          | Instr.Send { mem_addr; vec_width; _ } ->
              readers :=
                {
                  r_desc = "send";
                  r_core = None;
                  r_pc = Some pc;
                  r_addr = mem_addr;
                  r_width = vec_width;
                }
                :: !readers
          | Instr.Receive { mem_addr; count; vec_width; _ } ->
              writers :=
                {
                  w_desc = "receive";
                  w_core = None;
                  w_pc = Some pc;
                  w_addr = mem_addr;
                  w_width = vec_width;
                  w_count = count;
                }
                :: !writers
          | _ -> ())
        tp.tile_code;
      let outputs =
        List.filter (fun (b : Program.io_binding) -> b.tile = tile) p.outputs
      in
      if !dynamic then
        diags :=
          Diag.info ~code:"I-DYNADDR" ~tile
            "tile uses register-indirect shared-memory addressing; \
             consumer-count checks skipped"
          :: !diags
      else
        diags :=
          List.rev_append
            (List.rev
               (analyze_tile ~words:(footprint tile) ~tile
                  ~writers:(List.rev !writers) ~readers:(List.rev !readers)
                  ~outputs))
            !diags)
    p.tiles;
  List.rev !diags
