(* Observability layer: ZJNL journal round-trip and tamper detection,
   deterministic trace propagation through a full exchange, and audit
   reconstruction (including the reverted-events causal check). *)

module Fr = Zkdet_field.Bn254.Fr
module Chain = Zkdet_chain.Chain
module Obs = Zkdet_obs.Obs
module Event = Zkdet_obs.Event
module Journal = Zkdet_obs.Journal
module Audit = Zkdet_obs.Audit
module Scenario = Zkdet_core.Scenario
module Pool = Zkdet_parallel.Pool

let tmp name = Filename.concat (Filename.get_temp_dir_name ()) name

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* Every test owns the global Obs state: journal to a fresh file, run,
   then disable so other suites are unaffected. *)
let with_journal name f =
  let path = tmp name in
  Obs.set_journal_path (Some path);
  Obs.reset ();
  Fun.protect
    ~finally:(fun () -> Obs.set_journal_path None)
    (fun () ->
      let r = f path in
      Obs.close ();
      r)

let entries_of path =
  match Journal.read_file path with
  | Ok es -> es
  | Error e -> Alcotest.failf "journal unreadable: %s" (Journal.error_to_string e)

(* ---- journal format ---- *)

let test_journal_roundtrip () =
  let entries =
    with_journal "obs_roundtrip.zjnl" (fun path ->
        Obs.with_trace "t" (fun () ->
            Obs.emit (Event.Protocol_step { protocol = "p"; step = "s"; detail = [ ("k", "v") ] });
            Obs.with_span "inner" (fun () ->
                Obs.emit (Event.Proof_verified { system = "plonk"; ok = true })));
        Obs.close ();
        entries_of path)
  in
  Alcotest.(check int) "entry count" 6 (List.length entries);
  List.iteri
    (fun i (e : Journal.entry) ->
      Alcotest.(check int) "seq contiguous" i e.Journal.seq)
    entries;
  match (List.hd entries).Journal.event with
  | Event.Trace_begin { label } -> Alcotest.(check string) "label" "t" label
  | _ -> Alcotest.fail "first entry is not Trace_begin"

let test_journal_tamper_detected () =
  with_journal "obs_tamper.zjnl" (fun path ->
      Obs.with_trace "t" (fun () ->
          for i = 0 to 9 do
            Obs.emit
              (Event.Protocol_step
                 { protocol = "p"; step = string_of_int i; detail = [] })
          done);
      Obs.close ();
      let bytes = read_file path in
      (* flip one bit in the middle of the stream *)
      let tampered = Bytes.of_string bytes in
      let mid = Bytes.length tampered / 2 in
      Bytes.set tampered mid (Char.chr (Char.code (Bytes.get tampered mid) lxor 1));
      (match Journal.of_bytes (Bytes.to_string tampered) with
      | Ok _ -> Alcotest.fail "tampered journal accepted"
      | Error _ -> ());
      (* dropping an interior record breaks the chain too *)
      let entries = entries_of path in
      Alcotest.(check int) "12 entries" 12 (List.length entries);
      let header = String.sub bytes 0 6 in
      let records =
        (* re-slice the records by their length prefixes *)
        let rec go off acc =
          if off >= String.length bytes then List.rev acc
          else
            let len =
              Int32.to_int (String.get_int32_be bytes off) land 0xffffffff
            in
            go (off + 4 + len) (String.sub bytes off (4 + len) :: acc)
        in
        go 6 []
      in
      let without_third =
        header :: List.filteri (fun i _ -> i <> 2) records |> String.concat ""
      in
      match Journal.of_bytes without_third with
      | Ok _ -> Alcotest.fail "journal with a dropped record accepted"
      | Error (Journal.Hash_mismatch _) | Error (Journal.Seq_mismatch _) -> ()
      | Error e ->
        Alcotest.failf "unexpected error: %s" (Journal.error_to_string e))

(* ---- trace propagation through the full exchange ---- *)

let test_single_trace_and_tree () =
  with_journal "obs_exchange.zjnl" (fun path ->
      let o = Scenario.(run_cfg { Config.default with seed = 11; n = 4 }) in
      Alcotest.(check bool) "exchange ok" true o.Scenario.ok;
      Obs.close ();
      let entries = entries_of path in
      (* one trace id across every event of the run *)
      let ids =
        List.sort_uniq compare
          (List.map (fun (e : Journal.entry) -> e.Journal.trace_id) entries)
      in
      Alcotest.(check int) "single trace id" 1 (List.length ids);
      (* parent links form a tree rooted at the trace: the audit's
         structural pass reports any orphan or cross-trace span *)
      let report = Audit.run entries in
      List.iter
        (fun (i : Audit.issue) ->
          if i.Audit.severity = Audit.Err then
            Alcotest.failf "audit error: %s" i.Audit.message)
        report.Audit.issues;
      Alcotest.(check bool) "audit ok" true report.Audit.ok;
      (* the exchange produced proof + tx + storage events under spans *)
      let kinds = List.map (fun (e : Journal.entry) -> Event.kind e.Journal.event) entries in
      List.iter
        (fun k ->
          if not (List.mem k kinds) then Alcotest.failf "missing event kind %s" k)
        [ "trace_begin"; "span_begin"; "proof_generated"; "proof_verified";
          "tx_submitted"; "tx_mined"; "chunk_stored"; "chunk_fetched";
          "protocol_step"; "trace_end" ])

let test_audit_joins_chain () =
  with_journal "obs_join.zjnl" (fun path ->
      let o = Scenario.(run_cfg { Config.default with seed = 12; n = 4 }) in
      Obs.close ();
      let entries = entries_of path in
      let facts =
        List.map
          (fun (r : Chain.receipt) ->
            {
              Audit.fact_tx_hash = r.Chain.tx_hash;
              fact_label = r.Chain.tx_label;
              fact_ok = Result.is_ok r.Chain.status;
              fact_block = r.Chain.block_number;
              fact_events =
                List.map
                  (fun (ev : Chain.event) ->
                    (ev.Chain.event_contract, ev.Chain.event_name,
                     ev.Chain.event_data))
                  r.Chain.events;
            })
          (Chain.receipts o.Scenario.chain)
      in
      let report = Audit.run ~chain:facts entries in
      Alcotest.(check bool) "audit with chain join ok" true report.Audit.ok;
      (* corrupt one fact: the join must fail *)
      let bad =
        match facts with
        | f :: rest -> { f with Audit.fact_ok = not f.Audit.fact_ok } :: rest
        | [] -> Alcotest.fail "no chain facts"
      in
      let report = Audit.run ~chain:bad entries in
      Alcotest.(check bool) "mismatched facts rejected" false report.Audit.ok)

let test_byte_identical_journals () =
  (* same seed => byte-identical journals, at 1 and at 4 domains *)
  let run_once name domains =
    with_journal name (fun path ->
        Pool.with_domains domains (fun () ->
            ignore (Scenario.(run_cfg { Config.default with seed = 21; n = 4 })));
        Obs.close ();
        read_file path)
  in
  let a = run_once "obs_det_a.zjnl" 1 in
  let b = run_once "obs_det_b.zjnl" 1 in
  Alcotest.(check bool) "same seed, same bytes (1 domain)" true (String.equal a b);
  let c = run_once "obs_det_c.zjnl" 4 in
  Alcotest.(check bool) "same bytes at 4 domains" true (String.equal a c)

(* ---- mempool + parallel block production ---- *)

let load_cfg =
  {
    Scenario.Config.default with
    Scenario.Config.seed = 5;
    accounts = 16;
    datasets = 8;
    blocks = 3;
    txs_per_block = 8;
    skew = 1.0;
    work = 4;
  }

let test_load_journal_audits () =
  (* A journaled load run must audit clean — mempool admissions, block
     builds and mined txs all causally consistent — and the journal and
     final state must be byte-identical at any domain count. *)
  let run_once name domains =
    with_journal name (fun path ->
        let o = Pool.with_domains domains (fun () -> Scenario.load load_cfg) in
        Alcotest.(check bool) "load ok" true o.Scenario.load_ok;
        Obs.close ();
        (read_file path, Chain.state_hash o.Scenario.load_chain))
  in
  let a, ha = run_once "obs_load_a.zjnl" 1 in
  let c, hc = run_once "obs_load_c.zjnl" 4 in
  Alcotest.(check bool) "byte-identical journal at 4 domains" true
    (String.equal a c);
  Alcotest.(check string) "identical state hash" ha hc;
  let entries = entries_of (tmp "obs_load_a.zjnl") in
  let report = Audit.run entries in
  List.iter
    (fun (i : Audit.issue) ->
      if i.Audit.severity = Audit.Err then
        Alcotest.failf "audit error: %s" i.Audit.message)
    report.Audit.issues;
  Alcotest.(check bool) "audit ok" true report.Audit.ok;
  let count kind =
    List.length
      (List.filter
         (fun (e : Journal.entry) -> Event.kind e.Journal.event = kind)
         entries)
  in
  Alcotest.(check int) "every submission journaled" 24
    (count "mempool_admitted");
  Alcotest.(check int) "every block journaled" 3 (count "block_built");
  Alcotest.(check int) "every sealed tx journaled" 24 (count "tx_mined")

(* ---- causal checks ---- *)

let test_audit_flags_reverted_leak () =
  with_journal "obs_revert.zjnl" (fun path ->
      let chain = Chain.create () in
      let addr = Chain.Address.of_seed "auditee" in
      Chain.faucet chain addr 10_000_000;
      Obs.with_trace "revert-case" (fun () ->
          let r =
            Chain.execute chain ~sender:addr ~label:"fail" ~contract:"x"
              (fun env ->
                Chain.emit env ~contract:"x" ~name:"Leak" ~data:[];
                raise (Chain.Revert "nope"))
          in
          (match r.Chain.status with
          | Ok () -> Alcotest.fail "tx unexpectedly succeeded"
          | Error _ -> ());
          Alcotest.(check int) "receipt events discarded" 0
            (List.length r.Chain.events));
      Obs.close ();
      let entries = entries_of path in
      (* the journal records the revert but no Chain_event *)
      let has k =
        List.exists
          (fun (e : Journal.entry) -> Event.kind e.Journal.event = k)
          entries
      in
      Alcotest.(check bool) "tx_reverted journaled" true (has "tx_reverted");
      Alcotest.(check bool) "no chain_event leaked" false (has "chain_event");
      let report = Audit.run entries in
      Alcotest.(check bool) "audit ok" true report.Audit.ok;
      (* splice a forged Chain_event for the reverted tx into the entry
         list (post-authentication): the audit must flag it *)
      let reverted_hash =
        List.find_map
          (fun (e : Journal.entry) ->
            match e.Journal.event with
            | Event.Tx_reverted { tx_hash; _ } -> Some tx_hash
            | _ -> None)
          entries
        |> Option.get
      in
      let last = List.nth entries (List.length entries - 1) in
      let forged =
        {
          last with
          Journal.seq = last.Journal.seq + 1;
          event =
            Event.Chain_event
              { tx_hash = reverted_hash; contract = "x"; name = "Leak"; data = [] };
        }
      in
      let report = Audit.run (entries @ [ forged ]) in
      Alcotest.(check bool) "leaked event detected" false report.Audit.ok;
      let contains hay needle =
        let lh = String.length hay and ln = String.length needle in
        let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "revert leak named in issues" true
        (List.exists
           (fun (i : Audit.issue) ->
             i.Audit.severity = Audit.Err && contains i.Audit.message "revert")
           report.Audit.issues))

let () =
  Alcotest.run "zkdet_obs"
    [
      ( "journal",
        [
          Alcotest.test_case "roundtrip" `Quick test_journal_roundtrip;
          Alcotest.test_case "tamper detected" `Quick test_journal_tamper_detected;
        ] );
      ( "trace",
        [
          Alcotest.test_case "single trace, tree structure" `Slow
            test_single_trace_and_tree;
          Alcotest.test_case "audit joins chain snapshot" `Slow
            test_audit_joins_chain;
          Alcotest.test_case "byte-identical journals" `Slow
            test_byte_identical_journals;
          Alcotest.test_case "journaled load run audits clean" `Quick
            test_load_journal_audits;
        ] );
      ( "causal",
        [
          Alcotest.test_case "reverted events discarded and flagged" `Quick
            test_audit_flags_reverted_leak;
        ] );
    ]
