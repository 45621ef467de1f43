type item = { count : int; unit_j : float }

let energy it = float_of_int it.count *. it.unit_j

type entry = {
  k : int;
  encoded_bus : item;
  tt_reads : item;
  bbit_probes : item;
  gate_toggles : item;
  reprogram_writes : item;
}

type t = {
  name : string;
  model : Model.t;
  fetches : int;
  baseline_bus : item;
  entries : entry list;
}

let overhead_j e =
  energy e.tt_reads +. energy e.bbit_probes +. energy e.gate_toggles
  +. energy e.reprogram_writes

let recurring_overhead_j e =
  energy e.tt_reads +. energy e.bbit_probes +. energy e.gate_toggles

let net_savings_j t e =
  energy t.baseline_bus -. energy e.encoded_bus -. overhead_j e

let net_savings_pct t e =
  let base = energy t.baseline_bus in
  if base = 0.0 then 0.0 else 100.0 *. net_savings_j t e /. base

let break_even_fetches t e =
  let reprogram = energy e.reprogram_writes in
  if reprogram <= 0.0 then Some 0
  else if t.fetches = 0 then None
  else
    let per_fetch_gain =
      (energy t.baseline_bus -. energy e.encoded_bus
      -. recurring_overhead_j e)
      /. float_of_int t.fetches
    in
    if per_fetch_gain <= 0.0 then None
    else Some (int_of_float (Float.ceil (reprogram /. per_fetch_gain)))

let pp fmt t =
  let j = Buspower.Energy.pp_joules in
  Format.fprintf fmt "@[<v>energy ledger: %s (%d fetches)@," t.name t.fetches;
  Format.fprintf fmt "  model: %a@," Model.pp t.model;
  Format.fprintf fmt "  baseline bus: %d transitions = %a@,"
    t.baseline_bus.count j (energy t.baseline_bus);
  Format.fprintf fmt "  %2s %12s %10s %10s %10s %10s %10s %12s %8s %10s@," "k"
    "enc bus" "TT reads" "BBIT" "gates" "reprog" "overhead" "net saved" "net%"
    "break-even";
  List.iter
    (fun e ->
      let be =
        match break_even_fetches t e with
        | Some n -> string_of_int n
        | None -> "never"
      in
      let cell x = Format.asprintf "%a" j x in
      Format.fprintf fmt
        "  %2d %12s %10s %10s %10s %10s %10s %12s %7.2f%% %10s@," e.k
        (cell (energy e.encoded_bus))
        (cell (energy e.tt_reads))
        (cell (energy e.bbit_probes))
        (cell (energy e.gate_toggles))
        (cell (energy e.reprogram_writes))
        (cell (overhead_j e))
        (cell (net_savings_j t e))
        (net_savings_pct t e) be)
    t.entries;
  Format.fprintf fmt "@]"

let item_json it =
  Printf.sprintf "{\"count\": %d, \"unit_j\": %.6e, \"joules\": %.6e}" it.count
    it.unit_j (energy it)

let to_json t =
  let b = Buffer.create 1024 in
  let p fmt = Printf.bprintf b fmt in
  p "{\"name\": \"%s\", \"fetches\": %d, \"model\": %s, \"baseline_bus\": %s, \"entries\": ["
    (Jsonu.escape t.name) t.fetches (Model.to_json t.model) (item_json t.baseline_bus);
  List.iteri
    (fun i e ->
      if i > 0 then p ", ";
      p "{\"k\": %d, \"encoded_bus\": %s, \"tt_reads\": %s, \"bbit_probes\": \
         %s, \"gate_toggles\": %s, \"reprogram_writes\": %s, \"overhead_j\": \
         %.6e, \"net_savings_j\": %.6e, \"net_savings_pct\": %.6f, \
         \"break_even_fetches\": %s}"
        e.k (item_json e.encoded_bus) (item_json e.tt_reads)
        (item_json e.bbit_probes) (item_json e.gate_toggles)
        (item_json e.reprogram_writes) (overhead_j e) (net_savings_j t e)
        (net_savings_pct t e)
        (match break_even_fetches t e with
        | Some n -> string_of_int n
        | None -> "null"))
    t.entries;
  p "]}";
  Buffer.contents b
