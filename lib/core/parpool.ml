module Metrics = Telemetry.Metrics
module Tel = Telemetry.Registry

let sequential_mode () = Sys.getenv_opt "POWERCODE_SEQ" = Some "1"

let max_workers = 8

(* POWERCODE_DOMAINS pins the *total* domain count (caller + workers) so
   the bench domains sweep and CI can request deterministic widths on any
   machine.  Values above the physical core count deliberately
   oversubscribe — single-core CI runners still need to exercise the
   multi-domain code paths — and the cap still applies. *)
let requested_domains () =
  match Sys.getenv_opt "POWERCODE_DOMAINS" with
  | None -> None
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> Some n
      | _ -> None)

let worker_count () =
  match requested_domains () with
  | Some n -> min max_workers (n - 1)
  | None -> max 0 (min max_workers (Domain.recommended_domain_count () - 1))

(* Set while this domain claims items of a parallel call.  An [f] that
   itself calls [parallel_init] then runs the inner call sequentially: the
   outer call already owns all the parallelism there is, and spawning
   under it would multiply the domain count by the nesting depth. *)
let claiming = Domain.DLS.new_key (fun () -> false)

let ns_between t0 t1 = int_of_float (Float.max 0.0 (t1 -. t0))

let parallel_init n f =
  if n < 0 then invalid_arg "Parpool.parallel_init: negative length";
  let workers =
    if n <= 1 || sequential_mode () || Domain.DLS.get claiming then 0
    else min (worker_count ()) (n - 1)
  in
  if workers = 0 then begin
    Metrics.incr Tel.parpool_seq_fallbacks;
    Array.init n f
  end
  else begin
    Metrics.incr Tel.parpool_jobs;
    Metrics.set_gauge Tel.parpool_width 0 (workers + 1);
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let failure = Atomic.make None in
    let timed = Metrics.enabled () in
    let t_call = if timed then Metrics.now_ns () else 0.0 in
    (* One item per claim: per-item cost varies by orders of magnitude (a
       dct injection runs ~300x a tri one), so no static split balances. *)
    let claim slot =
      Domain.DLS.set claiming true;
      let t0 = if timed then Metrics.now_ns () else 0.0 in
      let items = ref 0 in
      let rec loop () =
        if Option.is_none (Atomic.get failure) then begin
          let i = Atomic.fetch_and_add next 1 in
          if i < n then begin
            (match f i with
            | v -> results.(i) <- Some v
            | exception exn ->
                ignore (Atomic.compare_and_set failure None (Some exn)));
            incr items;
            loop ()
          end
        end
      in
      loop ();
      Domain.DLS.set claiming false;
      Metrics.add Tel.parpool_chunks !items;
      Metrics.add_gauge Tel.parpool_worker_tasks slot !items;
      if timed then begin
        (* a slot is idle from the call's start until its first claim *)
        let idle = ns_between t_call t0 in
        let busy = ns_between t0 (Metrics.now_ns ()) in
        Metrics.add Tel.parpool_idle_ns idle;
        Metrics.add_gauge Tel.parpool_worker_idle_ns slot idle;
        Metrics.add Tel.parpool_busy_ns busy;
        Metrics.add_gauge Tel.parpool_worker_busy_ns slot busy
      end
    in
    let domains =
      List.init workers (fun w -> Domain.spawn (fun () -> claim (w + 1)))
    in
    claim 0;
    let t_join = if timed then Metrics.now_ns () else 0.0 in
    List.iter Domain.join domains;
    if timed then begin
      (* the caller's wait for the slowest worker is slot-0 idle *)
      let idle = ns_between t_join (Metrics.now_ns ()) in
      Metrics.add Tel.parpool_idle_ns idle;
      Metrics.add_gauge Tel.parpool_worker_idle_ns 0 idle
    end;
    match Atomic.get failure with
    | Some exn -> raise exn
    | None -> Array.map (function Some v -> v | None -> assert false) results
  end
