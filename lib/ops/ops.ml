(* In-process ops server: a minimal HTTP/1.1 endpoint over Unix sockets.

   Design constraints (see DESIGN.md "Ops server & continuous
   profiling"):

   - read-only: handlers only take snapshots of telemetry / journal
     state; they never mutate protocol state, so proof bytes, journals
     and state hashes are byte-identical with the server on or off;
   - dependency-free: plain [Unix] + [Thread], no HTTP framework;
   - single accept thread, one request per connection
     ([Connection: close]).  Scrape traffic (Prometheus, curl) is low
     rate; simplicity beats throughput here.

   The accept loop polls with [Unix.select] at 200 ms so [stop] can
   flip an atomic and join the thread without platform-dependent
   close-to-wake-accept behaviour.  Reading a request polls the same way
   under a per-connection deadline, so a client that connects and sends
   nothing holds the accept thread for at most [read_deadline_s] and
   never past [stop]. *)

module Telemetry = Zkdet_telemetry.Telemetry
module Json = Zkdet_telemetry.Json

type response = { status : int; content_type : string; body : string }

type handler = path:string -> query:(string * string) list -> response

type t = {
  sock : Unix.file_descr;
  port : int;
  stopped : bool Atomic.t;
  mutable thread : Thread.t option;
}

let text status body = { status; content_type = "text/plain; charset=utf-8"; body }
let json status body = { status; content_type = "application/json"; body }

let status_reason = function
  | 200 -> "OK"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 408 -> "Request Timeout"
  | 500 -> "Internal Server Error"
  | 503 -> "Service Unavailable"
  | _ -> "Unknown"

(* ---- request parsing ---- *)

let percent_decode s =
  let b = Buffer.create (String.length s) in
  let n = String.length s in
  let hex c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> raise Exit
  in
  let i = ref 0 in
  (try
     while !i < n do
       (match s.[!i] with
       | '%' when !i + 2 < n ->
         Buffer.add_char b (Char.chr ((hex s.[!i + 1] * 16) + hex s.[!i + 2]));
         i := !i + 2
       | '+' -> Buffer.add_char b ' '
       | c -> Buffer.add_char b c);
       incr i
     done
   with Exit -> (* malformed escape: keep the raw tail *)
     Buffer.add_substring b s !i (n - !i));
  Buffer.contents b

let parse_query q =
  String.split_on_char '&' q
  |> List.filter_map (fun kv ->
         if kv = "" then None
         else
           match String.index_opt kv '=' with
           | None -> Some (percent_decode kv, "")
           | Some i ->
             Some
               ( percent_decode (String.sub kv 0 i),
                 percent_decode
                   (String.sub kv (i + 1) (String.length kv - i - 1)) ))

type request = { meth : string; path : string; query : (string * string) list }

(* Time a client gets to send its whole header block. *)
let read_deadline_s = 2.0

(* Wait until [fd] is readable, the deadline passes or the server stops,
   in 200 ms polls. *)
let rec wait_readable ~stopped ~deadline fd =
  let left = deadline -. Unix.gettimeofday () in
  if left <= 0. || Atomic.get stopped then false
  else
    match Unix.select [ fd ] [] [] (Float.min left 0.2) with
    | _ :: _, _, _ -> true
    | [], _, _ -> wait_readable ~stopped ~deadline fd
    | exception Unix.Unix_error (Unix.EINTR, _, _) ->
      wait_readable ~stopped ~deadline fd

(* Read until the end of the header block (we ignore headers and any
   body: every supported route is a bodyless GET). *)
let read_request ~stopped fd : (request, response) result =
  let deadline = Unix.gettimeofday () +. read_deadline_s in
  let buf = Bytes.create 4096 in
  let acc = Buffer.create 256 in
  let rec fill () =
    if Buffer.length acc > 65536 then Error (text 400 "request too large\n")
    else
      let contents = Buffer.contents acc in
      match
        if String.length contents >= 4 then
          (* enough to contain the terminator? *)
          let rec find i =
            if i + 3 >= String.length contents then None
            else if String.sub contents i 4 = "\r\n\r\n" then Some i
            else find (i + 1)
          in
          find 0
        else None
      with
      | Some _ -> Ok contents
      | None when not (wait_readable ~stopped ~deadline fd) ->
        Error (text 408 "request timeout\n")
      | None -> (
        match Unix.read fd buf 0 (Bytes.length buf) with
        | 0 -> if Buffer.length acc = 0 then Error (text 400 "empty request\n") else Ok contents
        | n ->
          Buffer.add_subbytes acc buf 0 n;
          fill ()
        | exception Unix.Unix_error _ -> Error (text 400 "read error\n"))
  in
  match fill () with
  | Error e -> Error e
  | Ok raw -> (
    let first_line =
      match String.index_opt raw '\r' with
      | Some i -> String.sub raw 0 i
      | None -> raw
    in
    match String.split_on_char ' ' first_line with
    | [ meth; target; _version ] ->
      let path, query =
        match String.index_opt target '?' with
        | None -> (target, [])
        | Some i ->
          ( String.sub target 0 i,
            parse_query
              (String.sub target (i + 1) (String.length target - i - 1)) )
      in
      Ok { meth; path = percent_decode path; query }
    | _ -> Error (text 400 "malformed request line\n"))

let write_response fd (r : response) =
  let head =
    Printf.sprintf
      "HTTP/1.1 %d %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: close\r\n\r\n"
      r.status (status_reason r.status) r.content_type
      (String.length r.body)
  in
  let write_all s =
    let b = Bytes.of_string s in
    let n = Bytes.length b in
    let off = ref 0 in
    while !off < n do
      off := !off + Unix.write fd b !off (n - !off)
    done
  in
  (* A client that hung up before reading its answer is simply gone. *)
  try
    write_all head;
    write_all r.body
  with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ()

(* ---- built-in routes ---- *)

let process_gc_prometheus () =
  let g = Gc.quick_stat () in
  let b = Buffer.create 512 in
  let gauge name help v =
    Buffer.add_string b (Printf.sprintf "# HELP %s %s\n" name help);
    Buffer.add_string b (Printf.sprintf "# TYPE %s gauge\n" name);
    Buffer.add_string b (Printf.sprintf "%s %s\n" name v)
  in
  gauge "zkdet_process_minor_words"
    "Process-lifetime minor-heap words allocated."
    (Printf.sprintf "%.0f" g.Gc.minor_words);
  gauge "zkdet_process_major_words"
    "Process-lifetime major-heap words allocated."
    (Printf.sprintf "%.0f" g.Gc.major_words);
  gauge "zkdet_process_heap_words" "Current major heap size in words."
    (string_of_int g.Gc.heap_words);
  gauge "zkdet_process_minor_collections" "Minor collections since start."
    (string_of_int g.Gc.minor_collections);
  gauge "zkdet_process_major_collections" "Major collections since start."
    (string_of_int g.Gc.major_collections);
  gauge "zkdet_process_compactions" "Heap compactions since start."
    (string_of_int g.Gc.compactions);
  Buffer.contents b

let routes ?(extra = fun () -> "") () : handler =
 fun ~path ~query ->
  match path with
  | "/healthz" -> text 200 "ok\n"
  | "/metrics" ->
    let report = Telemetry.Report.to_prometheus (Telemetry.snapshot ()) in
    let windows = Telemetry.window_to_prometheus () in
    text 200 (report ^ windows ^ process_gc_prometheus () ^ extra ())
  | "/spans" ->
    json 200
      (Json.to_string (Telemetry.Report.to_json (Telemetry.snapshot ())))
  | "/flame" -> (
    let spans = (Telemetry.snapshot ()).Telemetry.Report.spans in
    match List.assoc_opt "fmt" query with
    | None | Some "collapsed" -> text 200 (Flame.collapsed spans)
    | Some "speedscope" -> json 200 (Json.to_string (Flame.speedscope spans))
    | Some other ->
      text 400
        (Printf.sprintf
           "unknown fmt %S (expected \"collapsed\" or \"speedscope\")\n" other))
  | _ -> text 404 "not found\n"

(* ---- server lifecycle ---- *)

let handle_connection ~stopped handler fd =
  (* A client that stops reading cannot stall the answer either. *)
  (try Unix.setsockopt_float fd Unix.SO_SNDTIMEO read_deadline_s
   with Unix.Unix_error _ -> ());
  (match read_request ~stopped fd with
  | Error resp -> ( try write_response fd resp with _ -> ())
  | Ok req -> (
    let resp =
      if req.meth <> "GET" then text 405 "only GET is supported\n"
      else
        try handler ~path:req.path ~query:req.query
        with exn ->
          text 500 (Printf.sprintf "handler error: %s\n" (Printexc.to_string exn))
    in
    try write_response fd resp with _ -> ()));
  try Unix.close fd with _ -> ()

let accept_loop t handler =
  while not (Atomic.get t.stopped) do
    match Unix.select [ t.sock ] [] [] 0.2 with
    | [], _, _ -> ()
    | _ :: _, _, _ -> (
      match Unix.accept t.sock with
      | fd, _ -> handle_connection ~stopped:t.stopped handler fd
      | exception Unix.Unix_error _ -> ())
    | exception Unix.Unix_error _ -> ()
  done

let start ?(host = "127.0.0.1") ~port handler =
  (* Writing to a socket its peer already closed raises SIGPIPE, whose
     default action kills the whole process; with the signal ignored the
     write fails with EPIPE instead, which [write_response] absorbs.
     (Invalid_argument: the platform has no SIGPIPE.) *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt sock Unix.SO_REUSEADDR true;
     Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
     Unix.listen sock 16
   with exn ->
     (try Unix.close sock with _ -> ());
     raise exn);
  let port =
    match Unix.getsockname sock with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> port
  in
  let t = { sock; port; stopped = Atomic.make false; thread = None } in
  t.thread <- Some (Thread.create (fun () -> accept_loop t handler) ());
  t

let port t = t.port

let stop t =
  if not (Atomic.exchange t.stopped true) then begin
    (match t.thread with Some th -> Thread.join th | None -> ());
    try Unix.close t.sock with _ -> ()
  end
