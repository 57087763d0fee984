package server

import (
	"crypto/rand"
	"crypto/subtle"
	"encoding/hex"
	"fmt"
)

// handleBytes is the entropy of a session handle (hex-encoded on the
// wire); 16 bytes makes handles unguessable capabilities.
const handleBytes = 16

// sessionIDBytes sizes the random part of a session id. Ids are
// addressable (they appear in requests and logs) but carry no authority:
// only the handle does.
const sessionIDBytes = 4

// connState is the per-connection state Serve threads through every
// request: its authentication status and the sessions it currently owns.
// Its address is the ownership anchor: a session's owner points at it.
// A connState is only ever touched by its own connection goroutine,
// except for the owned map, which is read and written only under
// Server.mu — by other connections too, when they take over, close or
// reap one of its sessions.
type connState struct {
	trusted bool // in-process Handle surface: pre-authed, no ownership checks
	authed  bool
	owned   map[string]*session
}

func (s *Server) newConn() *connState {
	return &connState{
		authed: s.opts.AuthToken == "",
		owned:  map[string]*session{},
	}
}

// handleAuth authenticates the connection with the shared secret. On a
// server with no token configured it is an allowed no-op, so clients can
// auth unconditionally.
func (s *Server) handleAuth(c *connState, req *Request) *Response {
	if s.opts.AuthToken == "" {
		c.authed = true
		return &Response{ID: req.ID, OK: true}
	}
	if !subtleEqual(req.Token, s.opts.AuthToken) {
		s.authFailures.Add(1)
		return errResp(req.ID, CodeAuthFailed, "invalid auth token")
	}
	c.authed = true
	return &Response{ID: req.ID, OK: true}
}

// tokenOK checks a per-request token in constant time.
func (s *Server) tokenOK(token string) bool {
	return s.opts.AuthToken != "" && subtleEqual(token, s.opts.AuthToken)
}

func subtleEqual(a, b string) bool {
	return subtle.ConstantTimeCompare([]byte(a), []byte(b)) == 1
}

// handleOK checks a presented session handle in constant time.
func handleOK(sess *session, handle string) bool {
	return handle != "" && subtleEqual(handle, sess.handle)
}

// adoptLocked binds sess to connection c, taking it from its previous
// owner. Called with Server.mu held.
func (s *Server) adoptLocked(c *connState, sess *session) {
	releaseLocked(sess)
	sess.owner = c
	c.owned[sess.id] = sess
}

// releaseLocked detaches sess from its owning connection, if any, so the
// owner's map stops holding it. Every change of owner, and every removal
// from the session table, goes through here. Called with Server.mu held.
func releaseLocked(sess *session) {
	if sess.owner != nil {
		delete(sess.owner.owned, sess.id)
		sess.owner = nil
	}
}

// detachAll releases every session this connection still owns when it
// ends. The sessions stay alive — a reconnecting client attaches with
// the handle — and their idle clock restarts at the disconnect, so the
// reaper grants a full TTL of grace before collecting them.
func (s *Server) detachAll(c *connState) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, sess := range c.owned {
		releaseLocked(sess)
		sess.touch()
	}
}

// randHex returns n cryptographically random bytes, hex-encoded.
func randHex(n int) string {
	b := make([]byte, n)
	if _, err := rand.Read(b); err != nil {
		// crypto/rand failing means the platform is broken; a debug
		// service cannot mint capabilities without it.
		panic(fmt.Sprintf("server: crypto/rand: %v", err))
	}
	return hex.EncodeToString(b)
}

// newSessionIDLocked mints a fresh random session id. Called with
// Server.mu held (uniqueness is checked against the live table).
func (s *Server) newSessionIDLocked() string {
	for {
		id := "s-" + randHex(sessionIDBytes)
		if _, taken := s.sessions[id]; !taken {
			return id
		}
	}
}
