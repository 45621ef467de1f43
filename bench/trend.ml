(* Bench-history trend analytics over bench/history.jsonl.

   The harness appends one JSON line per run (numeric leaves only, plus
   the schema/mode/settings strings).  This module turns that log into a
   gate: the latest entry is judged against a trailing window of prior
   runs with the SAME schema (a schema bump changes how much work a run
   does, so cross-schema wall-clock comparisons mislead — the lone first
   entry after a bump simply has no peers and passes with a note).

   Per leaf the window yields a median and a scaled MAD (1.4826 * median
   absolute deviation, the robust sigma).  Three verdicts, in increasing
   severity:

     - monotone drift: the leaf worsened on every one of the last
       [drift_steps] same-schema steps.  A slow leak no single-run band
       catches.  Warning only.
     - anomaly: the latest value sits more than [anomaly_sigma] robust
       sigmas from the window median (either direction; needs >= 4 peers
       and a nonzero MAD).  Warning only.
     - regression: the latest value is worse than the window median by
       more than the leaf's ratio threshold, with >= 2 peers.  This is
       the hard verdict — the analyzer's callers exit nonzero on it.

   Thresholds are per-leaf because the leaves' run-to-run noise differs
   by orders of magnitude: throughput rates (the figures the paper's
   claims ride on) gate at 2.5x so a 3x drop always trips; wall_s is
   dominated by machine load and gets 4x; plan_warm_speedup has varied
   ~2x run-to-run on one machine, so it gates only at 10x.  Direction
   matters: improvements never trip anything. *)

type direction = Higher | Lower | Neutral

(* Which way is good, per leaf.  Unknown leaves are Neutral: reported
   with a sparkline but never gated, so a schema bump that adds leaves
   cannot fail the gate retroactively. *)
let direction_of = function
  | "wall_s" -> Lower
  | "inj_per_s_d1" | "inj_per_s_dmax" | "bits_per_s_d1" | "bits_per_s_dmax"
  | "plan_warm_speedup" | "mean_reduction_k4_pct" | "mean_net_savings_k4_pct"
    ->
      Higher
  | _ -> Neutral

let threshold_of = function
  | "inj_per_s_d1" | "inj_per_s_dmax" | "bits_per_s_d1" | "bits_per_s_dmax" ->
      2.5
  | "wall_s" -> 4.0
  | "plan_warm_speedup" -> 10.0
  | "mean_reduction_k4_pct" | "mean_net_savings_k4_pct" -> 2.0
  | _ -> 3.0

let anomaly_sigma = 4.0
let drift_steps = 3
let default_window = 8

type row = {
  leaf : string;
  peers : int;  (* same-schema window size, latest excluded *)
  median : float;
  mad : float;  (* scaled: 1.4826 * raw MAD *)
  latest : float;
  worse_by : float option;  (* >1 = worse, <1 = better; None for Neutral *)
  spark : string;
  status : string;  (* "new" | "ok" | "drift" | "anomaly" | "REGRESSION" *)
  detail : string;
}

type result = {
  total_entries : int;
  skipped_lines : int;
  schema : string;
  schemas_seen : string list;
  window : int;  (* peers actually used (max over leaves) *)
  rows : row list;
  regressions : (string * string) list;
  warnings : (string * string) list;
  notes : string list;
}

(* ---- history loading --------------------------------------------------- *)

let load_history path =
  match open_in path with
  | exception Sys_error msg -> Error msg
  | ic ->
      let entries = ref [] and skipped = ref 0 in
      (try
         while true do
           let line = input_line ic in
           if String.trim line <> "" then
             match Jsonu.of_string line with
             | Ok v -> entries := v :: !entries
             | Error _ -> incr skipped
         done
       with End_of_file -> ());
      close_in ic;
      Ok (List.rev !entries, !skipped)

(* ---- robust stats ------------------------------------------------------ *)

let median_of = function
  | [] -> nan
  | xs ->
      let a = Array.of_list xs in
      Array.sort Float.compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2)
      else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let scaled_mad xs =
  match xs with
  | [] -> nan
  | _ ->
      let m = median_of xs in
      1.4826 *. median_of (List.map (fun x -> Float.abs (x -. m)) xs)

let sparkline xs =
  let glyphs = [| "\xe2\x96\x81"; "\xe2\x96\x82"; "\xe2\x96\x83";
                  "\xe2\x96\x84"; "\xe2\x96\x85"; "\xe2\x96\x86";
                  "\xe2\x96\x87"; "\xe2\x96\x88" |] in
  match xs with
  | [] -> ""
  | xs ->
      let lo = List.fold_left Float.min infinity xs in
      let hi = List.fold_left Float.max neg_infinity xs in
      let b = Buffer.create (3 * List.length xs) in
      List.iter
        (fun x ->
          let i =
            if hi -. lo <= 0.0 then 3
            else
              min 7
                (max 0 (int_of_float (7.9 *. ((x -. lo) /. (hi -. lo)))))
          in
          Buffer.add_string b glyphs.(i))
        xs;
      Buffer.contents b

(* ---- analysis ---------------------------------------------------------- *)

let get_str doc key =
  Option.bind (Jsonu.member key doc) Jsonu.to_string_opt

let numeric_leaves = function
  | Jsonu.Obj fields ->
      List.filter_map
        (fun (k, v) -> Option.map (fun f -> (k, f)) (Jsonu.to_float v))
        fields
  | _ -> []

let schema_of e = Option.value (get_str e "schema") ~default:"<none>"

(* Strictly-worsening step count ending at the latest value. *)
let trailing_worse_steps dir series =
  let worse a b =
    (* did the step a -> b worsen? *)
    match dir with Higher -> b < a | Lower -> b > a | Neutral -> false
  in
  let rec count acc = function
    | b :: a :: rest -> if worse a b then count (acc + 1) (a :: rest) else acc
    | _ -> acc
  in
  count 0 (List.rev series)

let analyze ?(window = default_window) (entries : Jsonu.t list) skipped =
  let total = List.length entries in
  let schemas_seen =
    List.sort_uniq compare (List.map schema_of entries)
  in
  match List.rev entries with
  | [] ->
      {
        total_entries = 0;
        skipped_lines = skipped;
        schema = "<none>";
        schemas_seen = [];
        window = 0;
        rows = [];
        regressions = [];
        warnings = [];
        notes = [ "history is empty; nothing to analyze" ];
      }
  | latest :: older_rev ->
      let schema = schema_of latest in
      let peers_all =
        List.filter (fun e -> schema_of e = schema) (List.rev older_rev)
      in
      let peers =
        (* trailing [window] same-schema runs *)
        let n = List.length peers_all in
        if n <= window then peers_all
        else List.filteri (fun i _ -> i >= n - window) peers_all
      in
      let notes = ref [] in
      if skipped > 0 then
        notes :=
          Printf.sprintf "%d unparseable history line(s) skipped" skipped
          :: !notes;
      if List.length schemas_seen > 1 then
        notes :=
          Printf.sprintf
            "history spans schemas %s; only same-schema runs are compared"
            (String.concat " -> " schemas_seen)
          :: !notes;
      if peers = [] then
        notes :=
          Printf.sprintf
            "first run at schema %s: no same-schema peers, gate passes \
             vacuously"
            schema
          :: !notes;
      let regressions = ref [] and warnings = ref [] in
      let rows =
        List.map
          (fun (leaf, latest_v) ->
            let series_prior =
              List.filter_map
                (fun e -> Option.bind (Jsonu.member leaf e) Jsonu.to_float)
                peers
            in
            let n = List.length series_prior in
            let series = series_prior @ [ latest_v ] in
            let dir = direction_of leaf in
            let median = median_of series_prior in
            let mad = scaled_mad series_prior in
            let worse_by =
              if n = 0 then None
              else
                match dir with
                | Neutral -> None
                | Higher when latest_v > 0.0 -> Some (median /. latest_v)
                | Higher -> Some infinity
                | Lower when median > 0.0 -> Some (latest_v /. median)
                | Lower -> Some infinity
            in
            let drift =
              n >= drift_steps
              && trailing_worse_steps dir series >= drift_steps
            in
            let anomalous =
              n >= 4 && mad > 0.0
              && Float.abs (latest_v -. median) > anomaly_sigma *. mad
            in
            let status, detail =
              match worse_by with
              | Some w when n >= 2 && w > threshold_of leaf ->
                  ( "REGRESSION",
                    Printf.sprintf
                      "%.4g vs window median %.4g: worse by %.2fx (limit \
                       %.1fx over %d runs)"
                      latest_v median w (threshold_of leaf) n )
              | _ when drift ->
                  ( "drift",
                    Printf.sprintf
                      "worsened on each of the last %d runs (now %.4g)"
                      drift_steps latest_v )
              | _ when anomalous ->
                  ( "anomaly",
                    Printf.sprintf
                      "%.4g is %.1f robust sigmas from median %.4g"
                      latest_v
                      (Float.abs (latest_v -. median) /. mad)
                      median )
              | _ when n = 0 -> ("new", "no same-schema history yet")
              | _ -> ("ok", "")
            in
            (match status with
            | "REGRESSION" -> regressions := (leaf, detail) :: !regressions
            | "drift" | "anomaly" -> warnings := (leaf, detail) :: !warnings
            | _ -> ());
            {
              leaf;
              peers = n;
              median;
              mad;
              latest = latest_v;
              worse_by;
              spark = sparkline series;
              status;
              detail;
            })
          (numeric_leaves latest)
      in
      {
        total_entries = total;
        skipped_lines = skipped;
        schema;
        schemas_seen;
        window = List.length peers;
        rows;
        regressions = List.rev !regressions;
        warnings = List.rev !warnings;
        notes = List.rev !notes;
      }

(* ---- reports ----------------------------------------------------------- *)

let fnum f =
  if Float.is_nan f then "-" else Printf.sprintf "%.4g" f

let to_markdown r =
  let b = Buffer.create 2048 in
  let p fmt = Printf.bprintf b fmt in
  p "# Bench history trend\n\n";
  p "- entries: %d (schemas: %s)\n" r.total_entries
    (String.concat ", " r.schemas_seen);
  p "- latest schema: %s; same-schema window: %d prior run(s)\n" r.schema
    r.window;
  List.iter (fun n -> p "- note: %s\n" n) r.notes;
  p "\n| leaf | runs | median | MAD | latest | worse-by | trend | status |\n";
  p "|---|---|---|---|---|---|---|---|\n";
  List.iter
    (fun row ->
      p "| %s | %d | %s | %s | %s | %s | %s | %s |\n" row.leaf row.peers
        (fnum row.median) (fnum row.mad) (fnum row.latest)
        (match row.worse_by with
        | None -> "-"
        | Some w -> Printf.sprintf "%.2fx" w)
        row.spark row.status)
    r.rows;
  if r.regressions <> [] then begin
    p "\n## Regressions\n\n";
    List.iter (fun (leaf, d) -> p "- **%s**: %s\n" leaf d) r.regressions
  end;
  if r.warnings <> [] then begin
    p "\n## Warnings\n\n";
    List.iter (fun (leaf, d) -> p "- %s: %s\n" leaf d) r.warnings
  end;
  Buffer.contents b

let html_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '<' -> Buffer.add_string b "&lt;"
      | '>' -> Buffer.add_string b "&gt;"
      | '&' -> Buffer.add_string b "&amp;"
      | '"' -> Buffer.add_string b "&quot;"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let to_html r =
  let b = Buffer.create 4096 in
  let p fmt = Printf.bprintf b fmt in
  p "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\n";
  p "<title>Bench history trend</title>\n";
  p
    "<style>body{font-family:system-ui,sans-serif;margin:2em}table{border-collapse:collapse}td,th{border:1px \
     solid #ccc;padding:4px 8px;text-align:right}td:first-child,th:first-child{text-align:left}.spark{font-family:monospace}.REGRESSION{background:#fdd}.drift,.anomaly{background:#ffd}.ok{background:#dfd}</style>\n";
  p "</head><body>\n<h1>Bench history trend</h1>\n<ul>\n";
  p "<li>entries: %d (schemas: %s)</li>\n" r.total_entries
    (html_escape (String.concat ", " r.schemas_seen));
  p "<li>latest schema: %s; same-schema window: %d prior run(s)</li>\n"
    (html_escape r.schema) r.window;
  List.iter (fun n -> p "<li>note: %s</li>\n" (html_escape n)) r.notes;
  p "</ul>\n<table>\n";
  p
    "<tr><th>leaf</th><th>runs</th><th>median</th><th>MAD</th><th>latest</th><th>worse-by</th><th>trend</th><th>status</th></tr>\n";
  List.iter
    (fun row ->
      p
        "<tr class=\"%s\"><td>%s</td><td>%d</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td><td \
         class=\"spark\">%s</td><td>%s%s</td></tr>\n"
        row.status (html_escape row.leaf) row.peers (fnum row.median)
        (fnum row.mad) (fnum row.latest)
        (match row.worse_by with
        | None -> "-"
        | Some w -> Printf.sprintf "%.2fx" w)
        row.spark (html_escape row.status)
        (if row.detail = "" then ""
         else " — " ^ html_escape row.detail))
    r.rows;
  p "</table>\n</body></html>\n";
  Buffer.contents b
