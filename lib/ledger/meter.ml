module Metrics = Telemetry.Metrics
module Tel = Telemetry.Registry

type t = {
  name : string;
  model : Model.t;
  ks : int array;
  encoded_region : image:int -> pc:int -> bool;
  mutable fetches : int;
  mutable branches : int;
  mutable baseline_trans : int;
  mutable prev_base : int;
  mutable prev_pc : int;
  mutable primed : bool;
  enc_trans : int array;
  tt_reads : int array;
  gate_toggles : int array;
  prev_enc : int array;
}

let create ~name ~model ~ks ~encoded_region =
  let n = Array.length ks in
  Metrics.incr Tel.ledger_meters;
  {
    name;
    model;
    ks = Array.copy ks;
    encoded_region;
    fetches = 0;
    branches = 0;
    baseline_trans = 0;
    prev_base = 0;
    prev_pc = min_int;
    primed = false;
    enc_trans = Array.make n 0;
    tt_reads = Array.make n 0;
    gate_toggles = Array.make n 0;
    prev_enc = Array.make n 0;
  }

let popcount32 = Bitutil.Popcount.count32

(* [count] fetches of [pc], each right after a fetch of [src_pc] that drove
   [src_base] and [src_enc]; with [primed = false] they have no
   predecessor (the first fetch of a run). *)
let account t ~count ~primed ~src_pc ~src_base ~src_enc ~pc ~baseline
    ~encoded =
  let n = Array.length t.ks in
  if Array.length encoded <> n || Array.length src_enc <> n then
    invalid_arg "Ledger.Meter.record: encoded word count <> ks";
  if (not primed) || pc <> src_pc + 1 then t.branches <- t.branches + count;
  let base_flips = if primed then popcount32 (baseline lxor src_base) else 0 in
  t.baseline_trans <- t.baseline_trans + (count * base_flips);
  for v = 0 to n - 1 do
    if primed then
      t.enc_trans.(v) <-
        t.enc_trans.(v)
        + count
          * popcount32 (Array.unsafe_get encoded v lxor Array.unsafe_get src_enc v);
    if t.encoded_region ~image:v ~pc then begin
      t.tt_reads.(v) <- t.tt_reads.(v) + count;
      t.gate_toggles.(v) <- t.gate_toggles.(v) + (count * base_flips)
    end
  done;
  t.fetches <- t.fetches + count

let record_edge t ~count ~src ~pc ~baseline ~encoded =
  match src with
  | None ->
      account t ~count ~primed:false ~src_pc:0 ~src_base:0 ~src_enc:encoded
        ~pc ~baseline ~encoded
  | Some (src_pc, src_base, src_enc) ->
      account t ~count ~primed:true ~src_pc ~src_base ~src_enc ~pc ~baseline
        ~encoded

let record t ~pc ~baseline ~encoded =
  account t ~count:1 ~primed:t.primed ~src_pc:t.prev_pc ~src_base:t.prev_base
    ~src_enc:t.prev_enc ~pc ~baseline ~encoded;
  Array.blit encoded 0 t.prev_enc 0 (Array.length encoded);
  t.prev_base <- baseline;
  t.prev_pc <- pc;
  t.primed <- true

let fetches t = t.fetches
let baseline_transitions t = t.baseline_trans
let encoded_transitions t i = t.enc_trans.(i)

let finalize t ~reprogram_writes =
  let n = Array.length t.ks in
  if Array.length reprogram_writes <> n then
    invalid_arg "Ledger.Meter.finalize: reprogram_writes length <> ks";
  Metrics.add Tel.ledger_fetches t.fetches;
  Metrics.add Tel.ledger_entries n;
  let m = t.model in
  let per_transition = Buspower.Energy.per_transition m.Model.bus in
  let entries =
    List.init n (fun v ->
        {
          Sheet.k = t.ks.(v);
          encoded_bus = { Sheet.count = t.enc_trans.(v); unit_j = per_transition };
          tt_reads = { Sheet.count = t.tt_reads.(v); unit_j = m.Model.tt_read_j };
          bbit_probes =
            { Sheet.count = t.branches; unit_j = m.Model.bbit_probe_j };
          gate_toggles =
            { Sheet.count = t.gate_toggles.(v); unit_j = m.Model.gate_toggle_j };
          reprogram_writes =
            { Sheet.count = reprogram_writes.(v); unit_j = m.Model.table_write_j };
        })
  in
  {
    Sheet.name = t.name;
    model = t.model;
    fetches = t.fetches;
    baseline_bus =
      { Sheet.count = t.baseline_trans; unit_j = per_transition };
    entries;
  }
