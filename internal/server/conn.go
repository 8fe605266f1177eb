package server

import (
	"errors"
	"time"

	"net"

	"viewmat/internal/frame"
	"viewmat/internal/proto"
)

// handleConn runs one connection's request/response loop until the
// peer hangs up, the idle deadline passes, the stream is damaged, or
// the server stops.
func (s *Server) handleConn(conn net.Conn) {
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()

	for {
		if s.draining() {
			return
		}
		conn.SetReadDeadline(time.Now().Add(s.cfg.ReadTimeout))
		req, err := proto.ReadRequest(conn)
		if err != nil {
			switch {
			case isClosedConnErr(err):
				// Peer hung up, idle timeout, or shutdown nudge.
			case errors.Is(err, frame.ErrChecksum),
				errors.Is(err, frame.ErrTooLarge),
				errors.Is(err, frame.ErrEmpty),
				errors.Is(err, proto.ErrDecode):
				// The stream carried a damaged or malicious frame. Framing
				// can no longer be trusted, so answer with a typed error
				// and close — never panic, never hang.
				s.writeResponse(conn, &proto.Response{Code: proto.CodeBadRequest, Err: err.Error()})
			default:
				s.cfg.Logf("server: read on %s: %v", conn.RemoteAddr(), err)
			}
			return
		}

		resp := s.admitAndProcess(req)
		if !s.writeResponse(conn, resp) {
			return
		}
	}
}

// writeResponse writes one response under the write deadline,
// reporting whether the connection is still usable. A response too
// large for one frame fails before any byte is written, so the stream
// is intact: the client gets CodeError in its place and the connection
// stays.
func (s *Server) writeResponse(conn net.Conn, resp *proto.Response) bool {
	conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
	err := proto.WriteResponse(conn, resp)
	if errors.Is(err, frame.ErrTooLarge) {
		err = proto.WriteResponse(conn, &proto.Response{Code: proto.CodeError, Err: "result exceeds the 16 MiB frame cap"})
	}
	if err != nil {
		if !isClosedConnErr(err) {
			s.cfg.Logf("server: write on %s: %v", conn.RemoteAddr(), err)
		}
		return false
	}
	return true
}

// admitAndProcess applies admission control, then executes the request
// against the engine. A request that finds every slot taken is
// answered CodeBusy without blocking: under overload the server sheds
// typed errors instead of growing a queue.
func (s *Server) admitAndProcess(req *proto.Request) *proto.Response {
	if s.draining() {
		return &proto.Response{Code: proto.CodeShutdown, Err: "server shutting down"}
	}
	select {
	case s.sem <- struct{}{}:
	default:
		return &proto.Response{Code: proto.CodeBusy, Err: "server busy: in-flight request cap reached"}
	}
	defer func() { <-s.sem }()
	if hold := s.admitHold.Load(); hold != nil {
		(*hold)()
	}
	return s.process(req)
}
