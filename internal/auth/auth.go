// Package auth implements GPUnion's lightweight node identity and token
// scheme. New provider nodes join through automatic registration (§3.4):
// the agent generates a unique machine identifier, presents it to the
// coordinator, and obtains an HMAC-signed bearer token that authenticates
// subsequent heartbeats and API calls inside the trusted campus LAN.
//
// The design goal is minimal friction, not adversarial security: the
// campus network is trusted, so tokens exist to prevent accidental
// cross-talk (stale agents, mistyped coordinator addresses), not to
// resist a determined attacker.
package auth

import (
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"
)

// Errors returned by token verification.
var (
	ErrMalformedToken = errors.New("auth: malformed token")
	ErrBadSignature   = errors.New("auth: bad signature")
	ErrExpired        = errors.New("auth: token expired")
	ErrWrongSubject   = errors.New("auth: token subject mismatch")
)

// NewMachineID generates a unique machine identifier of the form
// "node-<16 hex chars>" from a cryptographically random source, mirroring
// the registration scripts described in the paper.
func NewMachineID() (string, error) {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("auth: generating machine id: %w", err)
	}
	return fmt.Sprintf("node-%x", b), nil
}

// Role distinguishes what a token authorizes.
type Role string

// Token roles.
const (
	RoleProvider Role = "provider" // agent → coordinator traffic
)

// Claims is the signed payload of a token.
type Claims struct {
	// Subject is the machine ID (providers) or username (users).
	Subject string `json:"sub"`
	Role    Role   `json:"role"`
	// IssuedAt and ExpiresAt are Unix seconds.
	IssuedAt  int64 `json:"iat"`
	ExpiresAt int64 `json:"exp"`
}

// Authority issues and verifies tokens with a shared HMAC-SHA256 secret.
// The coordinator owns one Authority; agents and clients only hold the
// opaque tokens it mints.
type Authority struct {
	secret []byte
	ttl    time.Duration

	// verified remembers the claims of every token that passed
	// signature verification, keyed by the whole token string, signature
	// included: a hit means this exact string passed hmac.Equal under
	// secret, which never changes. A node presents the same token on
	// every beat until it registers again, so the HMAC, the base64
	// passes and the claims decode are paid once per session, not once
	// per beat. Expiry is not part of what is remembered — Verify
	// compares it with the caller's now on every use.
	mu       sync.RWMutex
	verified map[string]Claims
}

// maxVerified bounds the verified-token map. A live session holds one
// entry, so a fleet far larger than any the platform targets fits; at
// the bound the map is cleared wholesale and refills at one full
// verification per session.
const maxVerified = 1 << 16

// NewAuthority creates an Authority. If secret is empty a random one is
// generated (suitable for single-process deployments and tests). ttl <= 0
// defaults to 30 days, matching semester-scale participation.
func NewAuthority(secret []byte, ttl time.Duration) (*Authority, error) {
	if len(secret) == 0 {
		secret = make([]byte, 32)
		if _, err := rand.Read(secret); err != nil {
			return nil, fmt.Errorf("auth: generating secret: %w", err)
		}
	}
	if ttl <= 0 {
		ttl = 30 * 24 * time.Hour
	}
	return &Authority{secret: secret, ttl: ttl, verified: make(map[string]Claims)}, nil
}

// Issue mints a token for the subject with the given role, valid from now
// (the caller supplies now so simulated clocks work).
func (a *Authority) Issue(subject string, role Role, now time.Time) (string, error) {
	if subject == "" {
		return "", errors.New("auth: empty subject")
	}
	claims := Claims{
		Subject:   subject,
		Role:      role,
		IssuedAt:  now.Unix(),
		ExpiresAt: now.Add(a.ttl).Unix(),
	}
	payload, err := json.Marshal(claims)
	if err != nil {
		return "", fmt.Errorf("auth: encoding claims: %w", err)
	}
	body := base64.RawURLEncoding.EncodeToString(payload)
	sig := a.sign(body)
	return body + "." + sig, nil
}

// Verify checks the token's signature and expiry and returns its claims.
func (a *Authority) Verify(token string, now time.Time) (Claims, error) {
	a.mu.RLock()
	claims, seen := a.verified[token]
	a.mu.RUnlock()
	if !seen {
		var err error
		if claims, err = a.open(token); err != nil {
			return Claims{}, err
		}
	}
	if now.Unix() >= claims.ExpiresAt {
		return Claims{}, ErrExpired
	}
	if !seen {
		a.mu.Lock()
		if len(a.verified) >= maxVerified {
			clear(a.verified)
		}
		a.verified[token] = claims
		a.mu.Unlock()
	}
	return claims, nil
}

// open checks the token's signature and decodes its claims.
func (a *Authority) open(token string) (Claims, error) {
	body, sig, ok := strings.Cut(token, ".")
	if !ok || body == "" || sig == "" {
		return Claims{}, ErrMalformedToken
	}
	want := a.sign(body)
	if !hmac.Equal([]byte(sig), []byte(want)) {
		return Claims{}, ErrBadSignature
	}
	raw, err := base64.RawURLEncoding.DecodeString(body)
	if err != nil {
		return Claims{}, fmt.Errorf("%w: %v", ErrMalformedToken, err)
	}
	var claims Claims
	if err := json.Unmarshal(raw, &claims); err != nil {
		return Claims{}, fmt.Errorf("%w: %v", ErrMalformedToken, err)
	}
	return claims, nil
}

// VerifySubject verifies the token and additionally checks that it was
// issued to the expected subject, guarding against agents replaying each
// other's credentials.
func (a *Authority) VerifySubject(token, subject string, now time.Time) (Claims, error) {
	claims, err := a.Verify(token, now)
	if err != nil {
		return Claims{}, err
	}
	if claims.Subject != subject {
		return Claims{}, fmt.Errorf("%w: token for %q used by %q",
			ErrWrongSubject, claims.Subject, subject)
	}
	return claims, nil
}

func (a *Authority) sign(body string) string {
	mac := hmac.New(sha256.New, a.secret)
	mac.Write([]byte(body))
	return base64.RawURLEncoding.EncodeToString(mac.Sum(nil))
}
