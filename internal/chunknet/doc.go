// Package chunknet is the chunk-level discrete-event simulator of the
// INRPP reproduction: named chunks move over capacitated links between
// receiver-driven endpoints, through routers that run the paper's
// three-phase interface machinery (push-data / detour / back-pressure)
// with custody caches, per-interface anticipated-rate estimation and
// explicit back-pressure notifications.
//
// Three transports share the same links and topology, forming the
// transport axis of the custody sweeps:
//
//   - INRPP — the paper's design (§3.2–3.3): receiver-driven open-loop
//     push with in-network custody, one-hop detours and explicit
//     back-pressure;
//   - AIMD — a TCP-Reno-flavoured sender-driven single-path baseline
//     with drop-tail queues, the "closed feedback loop … resource
//     probing" design the paper argues against (§2.1);
//   - ARC — adaptive request control: a receiver-driven baseline that
//     runs AIMD over its request window, the way CCN/NDN
//     interest-shaping transports probe for capacity. Pull like INRPP,
//     end-to-end probing like AIMD — it isolates how much of INRPP's
//     gain comes from in-network resource pooling rather than from
//     receiver-driven pull alone.
//
// The transports meet the shared forwarding layer (forward.go) at one
// unexported seam (transport.go). A transport gives each flow an
// endpoint of its own type and state — hooks for flow start, a request
// or ack at the source, and a fresh chunk at the receiver — and a router
// side: a periodic tick, a hook when a store accepts a chunk, and a push
// scheduler for idle arcs. Only INRPP (inrpp.go) has a router side; AIMD
// (aimd.go) and ARC (reqctl.go) share one congestion window. New is the
// only code that branches on the transport; it also resets CustodyBytes
// and Failover for the baselines, which have neither custody nor detours.
//
// The simulator is single-threaded and deterministic: the same Config
// and transfer list always produce the same Report. Sweeps over
// transport, anticipation, custody budget and load run through
// sweep.ChunkSpec, which adds deterministic seed-driven start jitter on
// top.
package chunknet
