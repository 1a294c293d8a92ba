open Hwpat_rtl

type t = {
  sim : Cyclesim.t;
  valid_port : string;
  data_port : string;
  ready_port : string;
  ready_every : int;
  mutable tick : int;
  mutable captured : int list; (* newest first *)
  mutable count : int; (* length of [captured] *)
}

let create ?(valid_port = "out_valid") ?(data_port = "out_data")
    ?(ready_port = "out_ready") ?(ready_every = 1) sim () =
  if ready_every < 1 then invalid_arg "Vga_sink.create: ready_every must be >= 1";
  { sim; valid_port; data_port; ready_port; ready_every; tick = 0;
    captured = []; count = 0 }

let drive t =
  if t.ready_port <> "" then begin
    let ready = t.tick mod t.ready_every = 0 in
    Cyclesim.drive t.sim t.ready_port (Bits.of_bool ready)
  end;
  t.tick <- t.tick + 1

let observe t =
  if Bits.to_bool !(Cyclesim.out_port t.sim t.valid_port) then begin
    t.captured <-
      Bits.to_int !(Cyclesim.out_port t.sim t.data_port) :: t.captured;
    t.count <- t.count + 1
  end

let collected t = List.rev t.captured
let count t = t.count

let to_frame t ~width ~height ~depth =
  Frame.of_row_major ~width ~height ~depth (collected t)

let clear t =
  t.captured <- [];
  t.count <- 0;
  t.tick <- 0

(* Plane-level variant over a whole batch: one valid-plane read per
   cycle, with per-lane extraction only for the lanes that pulsed
   valid. Per lane and cycle the ready waveform and captured words are
   exactly the scalar [drive]/[observe] above. *)
module Batch = struct
  type bt = {
    sb : Simbatch.t;
    valid_out : int;
    valid_w : int;
    data_out : int;
    data_w : int;
    ready_in : int option;
    ready_every : int;
    tick : int array;
    captured : int list array; (* newest first, per lane *)
    count : int array;
  }

  let create ?(valid_port = "out_valid") ?(data_port = "out_data")
      ?(ready_port = "out_ready") ?(ready_every = 1) sb () =
    if ready_every < 1 then
      invalid_arg "Vga_sink.create: ready_every must be >= 1";
    let lanes = Simbatch.lanes sb in
    let width_of p = Signal.width (Circuit.find_output (Simbatch.circuit sb) p) in
    {
      sb;
      valid_out = Simbatch.out_node sb valid_port;
      valid_w = width_of valid_port;
      data_out = Simbatch.out_node sb data_port;
      data_w = width_of data_port;
      ready_in =
        (if ready_port = "" then None
         else Some (Simbatch.input_index sb ready_port));
      ready_every;
      tick = Array.make lanes 0;
      captured = Array.make lanes [];
      count = Array.make lanes 0;
    }

  let drive t ~mask =
    match t.ready_in with
    | None ->
      for l = 0 to Simbatch.lanes t.sb - 1 do
        if Int64.logand (Int64.shift_right_logical mask l) 1L = 1L then
          t.tick.(l) <- t.tick.(l) + 1
      done
    | Some ready_in ->
      let bits = ref 0L in
      for l = 0 to Simbatch.lanes t.sb - 1 do
        if Int64.logand (Int64.shift_right_logical mask l) 1L = 1L then begin
          if t.tick.(l) mod t.ready_every = 0 then
            bits := Int64.logor !bits (Int64.shift_left 1L l);
          t.tick.(l) <- t.tick.(l) + 1
        end
      done;
      Simbatch.write_input_plane t.sb ready_in ~plane:0 ~mask ~bits:!bits

  let observe t ~mask =
    let valid = ref 0L in
    for b = 0 to t.valid_w - 1 do
      valid :=
        Int64.logor !valid (Simbatch.read_plane t.sb t.valid_out ~plane:b)
    done;
    let hit = Int64.logand mask !valid in
    if not (Int64.equal hit 0L) then
      for l = 0 to Simbatch.lanes t.sb - 1 do
        if Int64.logand (Int64.shift_right_logical hit l) 1L = 1L then begin
          let px = ref 0 in
          for b = 0 to t.data_w - 1 do
            if
              Int64.logand
                (Int64.shift_right_logical
                   (Simbatch.read_plane t.sb t.data_out ~plane:b)
                   l)
                1L
              = 1L
            then px := !px lor (1 lsl b)
          done;
          t.captured.(l) <- !px :: t.captured.(l);
          t.count.(l) <- t.count.(l) + 1
        end
      done

  let collected t ~lane = List.rev t.captured.(lane)
  let count t ~lane = t.count.(lane)
end
