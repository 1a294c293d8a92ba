(** Elaborate a {!Hwpat_meta.Config.t} into a closed {!Circuit.t}, in
    both unpruned and pruned form, so the two can be compared by the
    formal layer.

    [full] exposes an input port for every operation the container
    kind supports; [pruned] ties the request (and data) ports of
    operations outside [ops_used] to constant zero and runs
    {!Hwpat_rtl.Optimize.circuit}, mirroring what the code generator's
    pruning does. The pruned circuit therefore has a subset of the
    full circuit's input ports; on the shared ("retained") interface
    the two must be sequentially equivalent, which is exactly the
    convention [Equiv.check] implements (exclusive inputs tied to
    zero).

    Every kind elaborates over every legal target. Ports (inputs;
    outputs):
    - [Queue], [Stack]: [get_req], [put_req], [put_data]; [get_ack],
      [get_data], [put_ack], [empty], [full], [size].
    - [Read_buffer]: [get_req], [px_valid], [px_data]; [get_ack],
      [get_data], [px_ready], [empty], [full], [size]. Over
      [Line_buffer3] a line is [depth] pixels and [get_data] is the
      3-pixel column, 3 × [elem_width] bits.
    - [Write_buffer]: [out_ready], [put_req], [put_data]; [put_ack],
      [out_valid], [out_data], [empty], [full], [size].
    - [Vector]: [read_req], [write_req], [addr], [write_data];
      [read_ack], [read_data], [write_ack], [length].
    - [Assoc_array]: [lookup_req], [insert_req], [delete_req], [key],
      [value_in]; [lookup_ack], [lookup_found], [lookup_data],
      [insert_ack], [insert_ok], [delete_ack], [delete_found],
      [occupancy].

    Pruning ties the requests of a dropped [Read] and the requests and
    data of a dropped [Write] to zero; the stream ports, [addr] and
    [key] always stay. Data and index widths equal those of
    {!Hwpat_meta.Codegen}'s entity ([addr] and [key] are [addr_width]
    bits). Protection ([parity], [op_timeout]) is not elaborated. *)

open Hwpat_rtl

val full : ?trace:Hwpat_obs.Trace.t -> Hwpat_meta.Config.t -> Circuit.t
val pruned : ?trace:Hwpat_obs.Trace.t -> Hwpat_meta.Config.t -> Circuit.t
(** [trace] (default disabled) records an [elaborate] span; for the
    pruned form it is annotated with the pruning decision — the
    operations whose driver ports stay live ([ops_kept]) and those
    tied to constant zero ([ops_tied_off]). *)
